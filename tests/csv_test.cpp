#include "dataset/csv.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "core/error.h"

namespace bblab::dataset {
namespace {

/// The tokenizer's rows for text that must tokenize cleanly.
std::vector<std::vector<std::string>> parse_clean(const std::string& text) {
  CsvParseResult result = parse_csv_lenient(text);
  EXPECT_TRUE(result.quarantine.empty()) << result.quarantine.summary();
  return std::move(result.rows);
}

TEST(ParseCsv, SimpleRows) {
  const auto rows = parse_clean("a,b,c\n1,2,3\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(ParseCsv, QuotedFieldsWithCommasAndQuotes) {
  const auto rows = parse_clean("\"hello, world\",\"say \"\"hi\"\"\"\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "hello, world");
  EXPECT_EQ(rows[0][1], "say \"hi\"");
}

TEST(ParseCsv, EmbeddedNewlineInQuotes) {
  const auto rows = parse_clean("\"line1\nline2\",x\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "line1\nline2");
}

TEST(ParseCsv, EmptyFieldsAndCrlf) {
  const auto rows = parse_clean("a,,c\r\n,,\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"", "", ""}));
}

TEST(ParseCsv, MissingTrailingNewline) {
  const auto rows = parse_clean("a,b");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
}

TEST(ParseCsv, ToleratesRealWorldFileShapes) {
  // Files exported from other tooling arrive with a UTF-8 BOM, CRLF or
  // classic-Mac bare-CR line endings, or a missing final newline — all of
  // which must parse to the same two rows.
  struct Case {
    const char* name;
    std::string text;
  };
  const std::vector<Case> cases{
      {"utf-8 bom", "\xEF\xBB\xBF" "a,b\n1,2\n"},
      {"crlf", "a,b\r\n1,2\r\n"},
      {"bare cr", "a,b\r1,2\r"},
      {"no trailing newline", "a,b\n1,2"},
      {"bom + crlf + no trailing newline", "\xEF\xBB\xBF" "a,b\r\n1,2"},
  };
  for (const auto& c : cases) {
    const auto rows = parse_clean(c.text);
    ASSERT_EQ(rows.size(), 2u) << c.name;
    EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"})) << c.name;
    EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2"})) << c.name;
  }
}

TEST(ParseCsv, MalformedRecordsAreQuarantined) {
  const auto unterminated = parse_csv_lenient("\"unterminated");
  EXPECT_TRUE(unterminated.rows.empty());
  ASSERT_EQ(unterminated.quarantine.quarantined(), 1u);
  EXPECT_EQ(unterminated.quarantine.rows[0].reason, QuarantineReason::kMalformedRow);
  EXPECT_NE(unterminated.quarantine.rows[0].detail.find("unterminated quoted field"),
            std::string::npos);

  const auto stray = parse_csv_lenient("ab\"cd\n");
  EXPECT_TRUE(stray.rows.empty());
  ASSERT_EQ(stray.quarantine.quarantined(), 1u);
  EXPECT_NE(stray.quarantine.rows[0].detail.find("quote inside unquoted field"),
            std::string::npos);
}

TEST(CsvWriter, QuotesOnlyWhenNeeded) {
  std::ostringstream os;
  CsvWriter w{os};
  w.row({"plain", "with,comma", "with\"quote", "multi\nline"});
  EXPECT_EQ(os.str(), "plain,\"with,comma\",\"with\"\"quote\",\"multi\nline\"\n");
}

TEST(CsvRoundTrip, ArbitraryContent) {
  std::ostringstream os;
  CsvWriter w{os};
  const std::vector<std::string> original{"a,b", "c\"d", "e\nf", "", "plain"};
  w.row(original);
  const auto rows = parse_clean(os.str());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], original);
}

UserRecord sample_record() {
  UserRecord r;
  r.user_id = 42;
  r.source = Source::kDasu;
  r.country_code = "US";
  r.region = market::Region::kNorthAmerica;
  r.year = 2012;
  r.capacity = Rate::from_mbps(17.6);
  r.upload_capacity = Rate::from_mbps(2.2);
  r.rtt_ms = 43.5;
  r.loss = 0.0012;
  r.access_price = MoneyPpp::usd(20.0);
  r.upgrade_cost_per_mbps = 0.96;
  r.plan_price = MoneyPpp::usd(53.0);
  r.plan_capacity = Rate::from_mbps(18.0);
  r.gdp_per_capita_ppp = 49797;
  r.usage.mean_down = Rate::from_kbps(350);
  r.usage.peak_down = Rate::from_kbps(2100);
  r.usage.mean_down_no_bt = Rate::from_kbps(280);
  r.usage.peak_down_no_bt = Rate::from_kbps(1700);
  r.usage.mean_up = Rate::from_kbps(40);
  r.usage.peak_up = Rate::from_kbps(200);
  r.usage.samples = 5000;
  r.usage.samples_no_bt = 4200;
  r.true_need_mbps = 12.0;
  r.archetype = behavior::Archetype::kStreamer;
  r.bt_user = true;
  return r;
}

std::string written(const std::vector<UserRecord>& records) {
  std::ostringstream os;
  write_user_records(os, records);
  return os.str();
}

/// Records read from text that must quarantine nothing.
std::vector<UserRecord> read_clean(const std::string& text) {
  UserReadResult result = read_user_records_lenient(text);
  EXPECT_TRUE(result.quarantine.empty()) << result.quarantine.summary();
  return std::move(result.records);
}

TEST(UserRecordsCsv, RoundTrips) {
  const auto back = read_clean(written({sample_record()}));
  ASSERT_EQ(back.size(), 1u);
  const auto& r = back.front();
  EXPECT_EQ(r.user_id, 42u);
  EXPECT_EQ(r.source, Source::kDasu);
  EXPECT_EQ(r.country_code, "US");
  EXPECT_EQ(r.region, market::Region::kNorthAmerica);
  EXPECT_EQ(r.year, 2012);
  EXPECT_NEAR(r.capacity.mbps(), 17.6, 1e-9);
  EXPECT_NEAR(r.rtt_ms, 43.5, 1e-9);
  EXPECT_NEAR(r.loss, 0.0012, 1e-12);
  EXPECT_NEAR(r.usage.peak_down_no_bt.kbps(), 1700, 1e-9);
  EXPECT_EQ(r.usage.samples, 5000u);
  EXPECT_EQ(r.archetype, behavior::Archetype::kStreamer);
  EXPECT_TRUE(r.bt_user);
}

TEST(UserRecordsCsv, EveryWriterLabelReadsBack) {
  std::vector<UserRecord> records;
  const auto add = [&](UserRecord r) {
    r.user_id = records.size();
    records.push_back(r);
  };
  for (const auto region : market::table5_regions()) {
    UserRecord r = sample_record();
    r.region = region;
    add(r);
  }
  UserRecord oceania = sample_record();
  oceania.region = market::Region::kOceania;
  add(oceania);
  for (const auto archetype : behavior::all_archetypes()) {
    UserRecord r = sample_record();
    r.archetype = archetype;
    add(r);
  }
  UserRecord fcc = sample_record();
  fcc.source = Source::kFcc;
  fcc.bt_user = false;
  add(fcc);

  const auto back = read_clean(written(records));
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back[i].source, records[i].source) << i;
    EXPECT_EQ(back[i].region, records[i].region) << i;
    EXPECT_EQ(back[i].archetype, records[i].archetype) << i;
    EXPECT_EQ(back[i].bt_user, records[i].bt_user) << i;
  }
}

/// sample_record()'s CSV with one field of its data row replaced.
std::string with_field(const std::string& column, const std::string& value) {
  const std::string csv = written({sample_record()});
  const std::size_t header_end = csv.find('\n');
  std::vector<std::string> header;
  std::vector<std::string> row;
  std::istringstream header_in{csv.substr(0, header_end)};
  std::istringstream row_in{csv.substr(header_end + 1, csv.size() - header_end - 2)};
  for (std::string f; std::getline(header_in, f, ',');) header.push_back(f);
  for (std::string f; std::getline(row_in, f, ',');) row.push_back(f);
  std::string out = csv.substr(0, header_end + 1);
  bool found = false;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ',';
    found = found || header[i] == column;
    out += header[i] == column ? value : row[i];
  }
  EXPECT_TRUE(found) << column;
  return out + '\n';
}

TEST(UserRecordsCsv, QuarantinesEveryValueTheWriterCannotWrite) {
  struct Case {
    const char* column;
    const char* value;
  };
  const std::vector<Case> cases{
      {"region", "Atlantis"},        {"region", "europe"},
      {"archetype", "couch-potato"}, {"source", "mlab"},
      {"bt_user", "yes"},            {"bt_user", ""},
      {"capacity_mbps", " 0.5"},     {"capacity_mbps", "0.5 "},
      {"capacity_mbps", "+0.5"},     {"capacity_mbps", "-inf"},
      {"capacity_mbps", "1e308"},    {"rtt_ms", "0x1p6"},
      {"rtt_ms", "nan"},             {"loss", ""},
      {"cap_gib", "nan"},            {"cap_gib", "-3"},
      {"cap_gib", "inf"},            {"cap_gib", "1.8e10"},
      {"year", "4294969307"},        {"year", "2012.0"},
      {"user_id", "-1"},             {"samples", "1e3"},
      {"peak_down_kbps", "1e306"},   {"need_mbps", "inf"},
  };
  for (const auto& c : cases) {
    const auto result = read_user_records_lenient(with_field(c.column, c.value));
    EXPECT_TRUE(result.records.empty()) << c.column << "=" << c.value;
    ASSERT_EQ(result.quarantine.quarantined(), 1u) << c.column << "=" << c.value;
    EXPECT_EQ(result.quarantine.rows[0].reason, QuarantineReason::kBadValue)
        << c.column << "=" << c.value;
  }
}

TEST(UserRecordsCsv, AcceptsTheValuesTheWriterWrites) {
  // Each of these is what write_user_records prints for some record: a
  // non-finite upgrade_cost, a zero (unmetered) or fractional cap,
  // negative zero, any int year.
  const std::vector<std::pair<const char*, const char*>> cases{
      {"upgrade_cost", "nan"}, {"upgrade_cost", "-inf"}, {"cap_gib", "0"},
      {"cap_gib", "0.5"},      {"rtt_ms", "-0"},         {"year", "1969"},
  };
  for (const auto& [column, value] : cases) {
    const auto result = read_user_records_lenient(with_field(column, value));
    EXPECT_EQ(result.records.size(), 1u) << column << "=" << value;
    EXPECT_TRUE(result.quarantine.empty()) << column << "=" << value;
  }
  const auto half_gib = read_clean(with_field("cap_gib", "0.5"));
  ASSERT_EQ(half_gib.size(), 1u);
  EXPECT_EQ(half_gib[0].monthly_cap, kGiB / 2);
}

TEST(UserRecordsCsv, ReadsCrlfWithBom) {
  std::string crlf;
  for (const char ch : written({sample_record()})) {
    if (ch == '\n') crlf += '\r';
    crlf += ch;
  }
  const auto back = read_clean("\xEF\xBB\xBF" + crlf);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].user_id, 42u);
}

TEST(UserRecordsCsv, RejectsWrongHeader) {
  EXPECT_THROW((void)read_user_records_lenient("foo,bar\n1,2\n"), InvalidArgument);
  EXPECT_THROW((void)read_user_records_lenient(""), InvalidArgument);
}

TEST(PlansCsv, WritesQuotedIspAndCapInGib) {
  market::ServicePlan plan;
  plan.isp = "Acme Fiber, Inc.";
  plan.country_code = "JP";
  plan.download = Rate::from_mbps(100);
  plan.upload = Rate::from_mbps(40);
  plan.monthly_price = MoneyPpp::usd(40.0);
  plan.monthly_cap = 250 * kGiB;
  plan.tech = market::AccessTech::kFiber;
  plan.dedicated = true;

  std::ostringstream os;
  write_plans(os, {plan});
  EXPECT_EQ(os.str(),
            "isp,country,down_mbps,up_mbps,price,cap_gib,tech,dedicated\n"
            "\"Acme Fiber, Inc.\",JP,100,40,40,250,fiber,1\n");
}

TEST(PlansCsv, UnmeteredCapStaysEmpty) {
  market::ServicePlan plan;
  plan.isp = "X";
  plan.country_code = "US";
  plan.download = Rate::from_mbps(10);
  plan.upload = Rate::from_mbps(1);
  plan.monthly_price = MoneyPpp::usd(30.0);

  std::ostringstream os;
  write_plans(os, {plan});
  const std::string text = os.str();
  EXPECT_EQ(text.substr(text.find('\n') + 1), "X,US,10,1,30,,DSL,0\n");
}

TEST(UpgradesCsv, WritesBeforeThenAfterSummaries) {
  UpgradeObservation u;
  u.user_id = 9;
  u.country_code = "JP";
  u.year = 2012;
  u.old_capacity = Rate::from_mbps(8);
  u.new_capacity = Rate::from_mbps(16);
  u.old_price = MoneyPpp::usd(30);
  u.new_price = MoneyPpp::usd(38);
  u.before.mean_down = Rate::from_kbps(120);
  u.before.peak_down = Rate::from_kbps(900);
  u.before.samples = 1000;
  u.before.samples_no_bt = 900;
  u.after.mean_down = Rate::from_kbps(260);
  u.after.peak_down = Rate::from_kbps(1.0 / 3.0);
  u.after.samples = 1100;
  u.after.samples_no_bt = 1000;

  std::ostringstream os;
  write_upgrades(os, {u});
  const std::string text = os.str();
  EXPECT_EQ(text.substr(0, text.find('\n')),
            "user_id,country,year,old_mbps,new_mbps,old_price,new_price,"
            "b_mean_kbps,b_peak_kbps,b_mean_nobt_kbps,b_peak_nobt_kbps,"
            "b_mean_up_kbps,b_peak_up_kbps,b_samples,b_samples_nobt,"
            "a_mean_kbps,a_peak_kbps,a_mean_nobt_kbps,a_peak_nobt_kbps,"
            "a_mean_up_kbps,a_peak_up_kbps,a_samples,a_samples_nobt");
  EXPECT_EQ(text.substr(text.find('\n') + 1),
            "9,JP,2012,8,16,30,38,120,900,0,0,0,0,1000,900,"
            "260,0.3333333333333333,0,0,0,0,1100,1000\n");
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(UserRecordsCsv, DoublesRoundTripBitExactly) {
  // Values chosen to break fixed-precision formatting: non-terminating
  // binary fractions, numbers needing all 17 significant digits,
  // subnormal-adjacent magnitudes, and the NaN that a weak price-capacity
  // correlation legitimately puts in upgrade_cost_per_mbps.
  UserRecord r = sample_record();
  r.capacity = Rate::from_bps(1.0 / 3.0);
  r.upload_capacity = Rate::from_bps(std::nextafter(2.2e6, 3e6));
  r.rtt_ms = 0.1 + 0.2;  // 0.30000000000000004
  r.loss = 1e-300;
  r.access_price = MoneyPpp::usd(19.989999999999998);
  r.upgrade_cost_per_mbps = std::numeric_limits<double>::quiet_NaN();
  r.gdp_per_capita_ppp = 49797.123456789017;
  r.true_need_mbps = std::nextafter(12.0, 13.0);

  const auto back = read_clean(written({r}));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_TRUE(bits_equal(back[0].capacity.bps(), r.capacity.bps()));
  EXPECT_TRUE(bits_equal(back[0].upload_capacity.bps(), r.upload_capacity.bps()));
  EXPECT_TRUE(bits_equal(back[0].rtt_ms, r.rtt_ms));
  EXPECT_TRUE(bits_equal(back[0].loss, r.loss));
  EXPECT_TRUE(bits_equal(back[0].access_price.dollars(), r.access_price.dollars()));
  EXPECT_TRUE(std::isnan(back[0].upgrade_cost_per_mbps));
  EXPECT_TRUE(bits_equal(back[0].gdp_per_capita_ppp, r.gdp_per_capita_ppp));
  EXPECT_TRUE(bits_equal(back[0].true_need_mbps, r.true_need_mbps));
}

TEST(UserRecordsCsv, WriteReadWriteIsAFixedPoint) {
  // The lossless-formatting contract, stated as idempotence: serializing
  // what we just parsed must reproduce the file byte for byte.
  UserRecord a = sample_record();
  a.capacity = Rate::from_bps(1.0 / 3.0);
  a.rtt_ms = 0.30000000000000004;
  a.loss = 1e-300;
  UserRecord b = sample_record();
  b.user_id = 43;
  b.gdp_per_capita_ppp = 1.0 / 7.0;
  b.upgrade_cost_per_mbps = std::numeric_limits<double>::quiet_NaN();

  const std::string first = written({a, b});
  EXPECT_EQ(written(read_clean(first)), first);
}

TEST(UserRecordsCsv, AdversarialStringsSurviveQuoting) {
  // Strings a hostile (or merely international) plan survey could carry:
  // separators, quotes, both newline flavors, and a BOM *inside* a field
  // (only a file-leading BOM may be stripped).
  const std::vector<std::string> nasty{
      "US,EU",                      // embedded separator
      "say \"hi\"",                 // embedded quotes
      "two\nlines",                 // LF inside a field
      "cr\rlf\r\n mix",             // CR and CRLF inside a field
      "\xEF\xBB\xBF" "BOM-leading", // must not be treated as a file BOM
      ",\",\r\n\"",                 // everything at once
  };
  std::vector<UserRecord> records;
  for (std::size_t i = 0; i < nasty.size(); ++i) {
    UserRecord r = sample_record();
    r.user_id = i;
    r.country_code = nasty[i];
    records.push_back(r);
  }

  const auto back = read_clean(written(records));
  ASSERT_EQ(back.size(), nasty.size());
  for (std::size_t i = 0; i < nasty.size(); ++i) {
    EXPECT_EQ(back[i].country_code, nasty[i]) << "field " << i;
    EXPECT_EQ(back[i].user_id, i);
  }
}

}  // namespace
}  // namespace bblab::dataset
