// Seeded mutation fuzz of the user-records reader, the decoder behind
// `bblab ingest`.
//
// A generated user-records CSV is damaged the ways files arrive damaged:
// flipped bytes, truncation, fields swapped within a row, and labels and
// numbers outside the writer's domain. The contract under every mutation:
// - only a header mismatch throws, and it throws InvalidArgument;
// - every data record is either admitted or quarantined, none lost;
// - every admitted record writes back to a row that decodes to the same
//   bits, so nothing the writer cannot represent gets in;
// - every admitted row is what the writer prints for its record, up to
//   the spelling of a number (checked field by field against the text,
//   not through the reader), so nothing is admitted as something else.
// The `fuzz` label runs this under ASan+UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/parse.h"
#include "dataset/csv.h"
#include "dataset/generator.h"

namespace bblab::dataset {
namespace {

const std::string& generated_csv() {
  static const std::string csv = [] {
    StudyConfig config;
    config.seed = 11;
    config.threads = 1;
    config.population_scale = 0.002;
    config.window_days = 0.1;
    config.fcc_users = 8;
    config.fcc_window_days = 0.1;
    const StudyDataset ds = StudyGenerator{market::World::builtin(), config}.generate();
    // The first Dasu users (Afghanistan's include NaN upgrade costs) and
    // the FCC panel: small enough that 1500 mutants run in seconds under
    // ASan.
    std::vector<UserRecord> records{ds.dasu.begin(), ds.dasu.begin() + 32};
    records.insert(records.end(), ds.fcc.begin(), ds.fcc.end());
    std::ostringstream os;
    write_user_records(os, records);
    return os.str();
  }();
  return csv;
}

/// Every field of the record but the country string, doubles by their
/// bits.
std::vector<std::uint64_t> bits_of(const UserRecord& r) {
  const auto b = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return {r.user_id,
          static_cast<std::uint64_t>(r.source),
          static_cast<std::uint64_t>(r.region),
          static_cast<std::uint64_t>(r.year),
          b(r.capacity.bps()),
          b(r.upload_capacity.bps()),
          b(r.rtt_ms),
          b(r.loss),
          b(r.access_price.dollars()),
          b(r.upgrade_cost_per_mbps),
          b(r.plan_price.dollars()),
          b(r.plan_capacity.bps()),
          r.monthly_cap,
          b(r.gdp_per_capita_ppp),
          b(r.usage.mean_down.bps()),
          b(r.usage.peak_down.bps()),
          b(r.usage.mean_down_no_bt.bps()),
          b(r.usage.peak_down_no_bt.bps()),
          b(r.usage.mean_up.bps()),
          b(r.usage.peak_up.bps()),
          r.usage.samples,
          r.usage.samples_no_bt,
          b(r.true_need_mbps),
          static_cast<std::uint64_t>(r.archetype),
          r.bt_user ? 1u : 0u};
}

/// Byte offsets of the data lines (the generated file quotes nothing, so
/// lines are records).
std::vector<std::pair<std::size_t, std::size_t>> data_lines(const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> lines;
  std::size_t begin = text.find('\n');
  while (begin != std::string::npos && begin + 1 < text.size()) {
    begin += 1;
    const std::size_t end = text.find('\n', begin);
    lines.emplace_back(begin, (end == std::string::npos ? text.size() : end) - begin);
    begin = end;
  }
  return lines;
}

std::vector<std::string> split(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream in{line};
  for (std::string f; std::getline(in, f, ',');) fields.push_back(f);
  if (!line.empty() && line.back() == ',') fields.emplace_back();
  return fields;
}

std::string join(const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) out += (i > 0 ? "," : "") + fields[i];
  return out;
}

/// Values outside the writer's domain for some column, plus a few it does
/// write, so swaps and replacements also land on admissible text.
const std::vector<std::string> kOddValues{
    "",        " 1",     "1 ",       "+1",         "0x1p6",     "1e400",    "-1e400",
    "nan",     "-nan",   "inf",      "-inf",       "1e308",     "-3",       "-0",
    "0",       "0.5",    "2e-320",   "4294969307", "18446744073709551616",  "2012.0",
    "1,5",     "\"q\"",  "Europe",   "Oceania",    "europe",    "Atlantis", "dasu",
    "fcc",     "FCC",    "streamer", "bt-heavy",   "power-user", "1",       "yes",
    "\xEF\xBB\xBF" "1",  "1\r2",     "\t",         "1e-310"};

std::string mutate(const std::string& base, std::mt19937_64& rng) {
  std::string text = base;
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(std::uniform_int_distribution<std::size_t>{0, n - 1}(rng));
  };
  const std::size_t edits = 1 + pick(4);
  for (std::size_t e = 0; e < edits && !text.empty(); ++e) {
    const auto lines = data_lines(text);
    switch (pick(lines.empty() ? 2 : 4)) {
      case 0: {  // byte flip, anywhere (header included)
        const std::size_t at = pick(text.size());
        text[at] = static_cast<char>(text[at] ^ (1u << pick(8)));
        break;
      }
      case 1:  // truncation
        text.resize(pick(text.size() + 1));
        break;
      case 2: {  // swap two fields of one row
        const auto [begin, length] = lines[pick(lines.size())];
        auto fields = split(text.substr(begin, length));
        if (fields.size() < 2) break;
        std::swap(fields[pick(fields.size())], fields[pick(fields.size())]);
        text.replace(begin, length, join(fields));
        break;
      }
      default: {  // an out-of-domain label or number in one field
        const auto [begin, length] = lines[pick(lines.size())];
        auto fields = split(text.substr(begin, length));
        if (fields.empty()) break;
        fields[pick(fields.size())] = kOddValues[pick(kOddValues.size())];
        text.replace(begin, length, join(fields));
        break;
      }
    }
  }
  return text;
}

/// The value a numeric field stands for in the unit the record stores it
/// in (bits per second, whole bytes); nullopt for text that is not one
/// decimal number.
std::optional<double> stored_value(const std::string& column, const std::string& text) {
  const std::optional<double> v = parse_number<double>(text);
  if (!v) return std::nullopt;
  if (column.ends_with("_mbps")) return Rate::from_mbps(*v).bps();
  if (column.ends_with("_kbps")) return Rate::from_kbps(*v).bps();
  if (column == "cap_gib") return std::round(*v * static_cast<double>(kGiB));
  return *v;
}

/// Field by field: `row` is what the writer prints for `r`, except that
/// a number may be spelled differently ("0.50" for "0.5").
void expect_written_form(const std::vector<std::string>& header,
                         const std::vector<std::string>& row, const UserRecord& r,
                         std::uint64_t seed) {
  std::ostringstream os;
  write_user_records(os, {r});
  const std::vector<std::string> written = parse_csv_lenient(os.str()).rows.at(1);
  ASSERT_EQ(row.size(), written.size());
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i] == written[i]) continue;
    const auto a = stored_value(header[i], row[i]);
    const auto b = stored_value(header[i], written[i]);
    EXPECT_TRUE(a && b && (*a == *b || (std::isnan(*a) && std::isnan(*b))))
        << "seed " << seed << ": " << header[i] << " '" << row[i] << "' admitted as '"
        << written[i] << "'";
  }
}

TEST(CsvFuzz, GeneratedFileReadsBackWhole) {
  const auto result = read_user_records_lenient(generated_csv());
  EXPECT_EQ(result.records.size(),
            static_cast<std::size_t>(std::count(generated_csv().begin(), generated_csv().end(), '\n')) - 1);
  EXPECT_TRUE(result.quarantine.empty()) << result.quarantine.summary();
  EXPECT_TRUE(std::any_of(result.records.begin(), result.records.end(),
                          [](const UserRecord& r) { return std::isnan(r.upgrade_cost_per_mbps); }));
}

TEST(CsvFuzz, MutatedRowsAreAdmittedExactlyOrQuarantined) {
  const std::string& base = generated_csv();
  const std::vector<std::string> header = parse_csv_lenient(base).rows.front();
  std::size_t threw = 0;
  std::size_t quarantined = 0;
  for (std::uint64_t seed = 0; seed < 1500; ++seed) {
    std::mt19937_64 rng{seed};
    const std::string text = mutate(base, rng);
    const CsvParseResult tokens = parse_csv_lenient(text);
    const bool header_ok = !tokens.rows.empty() && tokens.rows.front() == header;
    const std::size_t data_records = tokens.rows.size() + tokens.quarantine.quarantined() - 1;

    UserReadResult result;
    try {
      result = read_user_records_lenient(text);
    } catch (const InvalidArgument&) {
      EXPECT_FALSE(header_ok) << "seed " << seed << ": threw with a good header";
      ++threw;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "seed " << seed << ": untyped exception: " << e.what();
      continue;
    }
    ASSERT_TRUE(header_ok) << "seed " << seed << ": a bad header was accepted";
    EXPECT_EQ(result.quarantine.admitted, result.records.size()) << "seed " << seed;
    EXPECT_EQ(result.records.size() + result.quarantine.quarantined(), data_records)
        << "seed " << seed;
    quarantined += result.quarantine.quarantined();

    // The admitted records are the data rows the reader did not
    // quarantine, in file order.
    std::set<std::size_t> rejected;
    for (const auto& q : result.quarantine.rows) rejected.insert(q.index);
    std::size_t next = 0;
    for (std::size_t i = 1; i < tokens.rows.size(); ++i) {
      if (rejected.count(tokens.row_indices[i]) > 0) continue;
      ASSERT_LT(next, result.records.size()) << "seed " << seed;
      expect_written_form(header, tokens.rows[i], result.records[next++], seed);
    }
    EXPECT_EQ(next, result.records.size()) << "seed " << seed;

    for (const UserRecord& r : result.records) {
      std::ostringstream os;
      write_user_records(os, {r});
      const auto again = read_user_records_lenient(os.str());
      ASSERT_EQ(again.records.size(), 1u)
          << "seed " << seed << ": admitted record does not read back: " << os.str()
          << (again.quarantine.empty() ? "" : again.quarantine.rows[0].detail);
      EXPECT_EQ(bits_of(again.records[0]), bits_of(r)) << "seed " << seed << ": " << os.str();
      EXPECT_EQ(again.records[0].country_code, r.country_code) << "seed " << seed;
    }
  }
  // The mutations reach every outcome, so no branch is vacuous.
  EXPECT_GT(threw, 0u);
  EXPECT_GT(quarantined, 1000u);
}

}  // namespace
}  // namespace bblab::dataset
