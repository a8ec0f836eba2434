#include "dataset/csv.h"

#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <ostream>
#include <set>
#include <utility>

#include "core/error.h"
#include "core/parse.h"

namespace bblab::dataset {

namespace {

bool needs_quoting(const std::string& s) {
  return s.find_first_of(",\"\n\r") != std::string::npos;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

std::string fmt(double v) {
  // Shortest decimal that round-trips: to_double(fmt(v)) == v bit-exactly
  // for every finite v (and NaN/inf survive as "nan"/"inf"). The previous
  // 12-significant-digit formatting silently lost the low bits of every
  // double, so write -> read -> write was not a fixed point.
  std::array<char, 32> buf;
  const auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  require(ec == std::errc{}, "csv: double format failed");
  return std::string{buf.data(), ptr};
}

// Field decoders for the reader. Each reads the whole token through
// parse_number (no blanks, no '+', no hex) and throws IoError, which the
// reader quarantines as bad-value, on anything the writer cannot write.

std::uint64_t to_u64(const std::string& s) {
  const std::optional<std::uint64_t> v = parse_number<std::uint64_t>(s);
  if (!v) throw IoError{"csv: not an unsigned integer: " + s};
  return *v;
}

int to_int(const std::string& s) {
  const std::optional<int> v = parse_number<int>(s);
  if (!v) throw IoError{"csv: not an int: " + s};
  return *v;
}

/// Any double, "nan" and "inf" included.
double to_double(const std::string& s) {
  const std::optional<double> v = parse_number<double>(s);
  if (!v) throw IoError{"csv: not a number: " + s};
  return *v;
}

double to_finite(const std::string& s) {
  const double v = to_double(s);
  if (!std::isfinite(v)) throw IoError{"csv: not a finite number: " + s};
  return v;
}

/// A rate must stay finite after scaling to bits per second, or it would
/// not write back to the same text.
Rate finite_rate(Rate rate, const std::string& s) {
  if (!std::isfinite(rate.bps())) throw IoError{"csv: rate out of range: " + s};
  return rate;
}
Rate to_mbps(const std::string& s) { return finite_rate(Rate::from_mbps(to_double(s)), s); }
Rate to_kbps(const std::string& s) { return finite_rate(Rate::from_kbps(to_double(s)), s); }

/// A cap in GiB as whole bytes: non-negative and below 2^64.
Bytes to_cap_bytes(const std::string& s) {
  const double gib = to_double(s);
  const double bytes = std::round(gib * static_cast<double>(kGiB));
  if (!(gib >= 0.0) || !(bytes < 0x1p64)) throw IoError{"csv: cap out of range: " + s};
  return static_cast<Bytes>(bytes);
}

/// The value among `values` whose writer label is `s`.
template <typename Values, typename Label>
auto from_label(const Values& values, Label label, const std::string& s) {
  for (const auto v : values) {
    if (label(v) == s) return v;
  }
  throw IoError{"csv: unknown label: " + s};
}

market::Region to_region(const std::string& s) {
  if (s == market::region_label(market::Region::kOceania)) return market::Region::kOceania;
  return from_label(market::table5_regions(), market::region_label, s);
}

const char* bool_label(bool b) { return b ? "1" : "0"; }

}  // namespace

void CsvWriter::row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << (needs_quoting(fields[i]) ? quote(fields[i]) : fields[i]);
  }
  out_ << '\n';
}

namespace {

/// Split text into raw records at newlines outside quoted fields. This is
/// the lenient half of parsing: it strips a UTF-8 BOM, accepts LF, CRLF,
/// and bare-CR record terminators, tolerates a missing trailing newline,
/// and skips blank records. Quote state is tracked so embedded newlines
/// inside quoted fields stay part of their record; an unterminated quote
/// simply runs to end of text (parse_record reports it).
std::vector<std::string> split_records(const std::string& text) {
  std::vector<std::string> records;
  std::size_t begin = 0;
  if (text.rfind("\xEF\xBB\xBF", 0) == 0) begin = 3;

  std::string record;
  bool in_quotes = false;
  for (std::size_t i = begin; i < text.size(); ++i) {
    const char ch = text[i];
    if (in_quotes) {
      record += ch;
      if (ch == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          record += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      }
      continue;
    }
    if (ch == '"') {
      in_quotes = true;
      record += ch;
      continue;
    }
    if (ch == '\n' || ch == '\r') {
      if (ch == '\r' && i + 1 < text.size() && text[i + 1] == '\n') ++i;
      if (!record.empty()) records.push_back(std::move(record));
      record.clear();
      continue;
    }
    record += ch;
  }
  if (!record.empty()) records.push_back(std::move(record));
  return records;
}

/// Tokenize one record into fields. A quote opening mid-field throws
/// InvalidArgument, an unterminated quoted field throws IoError;
/// parse_csv_lenient quarantines the record with that message.
std::vector<std::string> parse_record(const std::string& record) {
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  for (std::size_t i = 0; i < record.size(); ++i) {
    const char ch = record[i];
    if (in_quotes) {
      if (ch == '"') {
        if (i + 1 < record.size() && record[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += ch;
      }
      continue;
    }
    switch (ch) {
      case '"':
        require(field.empty(), "csv: quote inside unquoted field");
        in_quotes = true;
        break;
      case ',':
        row.push_back(std::move(field));
        field.clear();
        break;
      default:
        field += ch;
    }
  }
  if (in_quotes) throw IoError{"csv: unterminated quoted field"};
  row.push_back(std::move(field));
  return row;
}

std::string join_fields(const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ',';
    out += fields[i];
  }
  return out;
}

}  // namespace

CsvParseResult parse_csv_lenient(const std::string& text) {
  CsvParseResult out;
  const auto records = split_records(text);
  for (std::size_t i = 0; i < records.size(); ++i) {
    try {
      out.rows.push_back(parse_record(records[i]));
      out.row_indices.push_back(i);
      out.quarantine.note_admitted();
    } catch (const std::exception& e) {
      out.quarantine.add(i, QuarantineReason::kMalformedRow, records[i], e.what());
    }
  }
  return out;
}

namespace {

const std::vector<std::string> kUserHeader{
    "user_id",     "source",       "country",     "region",       "year",
    "capacity_mbps", "upload_mbps", "rtt_ms",     "loss",         "access_price",
    "upgrade_cost", "plan_price",  "plan_mbps",   "cap_gib",      "gdp_pc",
    "mean_down_kbps",
    "peak_down_kbps", "mean_down_nobt_kbps", "peak_down_nobt_kbps", "mean_up_kbps",
    "peak_up_kbps", "samples",     "samples_no_bt", "need_mbps",  "archetype",
    "bt_user"};

}  // namespace

void write_user_records(std::ostream& out, const std::vector<UserRecord>& records) {
  CsvWriter w{out};
  w.row(kUserHeader);
  for (const auto& r : records) {
    w.row({std::to_string(r.user_id), source_label(r.source), r.country_code,
           market::region_label(r.region), std::to_string(r.year),
           fmt(r.capacity.mbps()), fmt(r.upload_capacity.mbps()), fmt(r.rtt_ms),
           fmt(r.loss), fmt(r.access_price.dollars()), fmt(r.upgrade_cost_per_mbps),
           fmt(r.plan_price.dollars()), fmt(r.plan_capacity.mbps()),
           fmt(static_cast<double>(r.monthly_cap) / static_cast<double>(kGiB)),
           fmt(r.gdp_per_capita_ppp), fmt(r.usage.mean_down.kbps()),
           fmt(r.usage.peak_down.kbps()), fmt(r.usage.mean_down_no_bt.kbps()),
           fmt(r.usage.peak_down_no_bt.kbps()), fmt(r.usage.mean_up.kbps()),
           fmt(r.usage.peak_up.kbps()), std::to_string(r.usage.samples),
           std::to_string(r.usage.samples_no_bt), fmt(r.true_need_mbps),
           behavior::archetype_label(r.archetype), bool_label(r.bt_user)});
  }
}

namespace {

/// Decode one already-tokenized data row (exactly kUserHeader.size()
/// fields). Throws IoError on the first field the writer cannot write.
UserRecord parse_user_row(const std::vector<std::string>& f) {
  UserRecord r;
  r.user_id = to_u64(f[0]);
  r.source = from_label(std::array{Source::kDasu, Source::kFcc}, source_label, f[1]);
  r.country_code = f[2];
  r.region = to_region(f[3]);
  r.year = to_int(f[4]);
  r.capacity = to_mbps(f[5]);
  r.upload_capacity = to_mbps(f[6]);
  r.rtt_ms = to_finite(f[7]);
  r.loss = to_finite(f[8]);
  r.access_price = MoneyPpp::usd(to_finite(f[9]));
  r.upgrade_cost_per_mbps = to_double(f[10]);
  r.plan_price = MoneyPpp::usd(to_finite(f[11]));
  r.plan_capacity = to_mbps(f[12]);
  r.monthly_cap = to_cap_bytes(f[13]);
  r.gdp_per_capita_ppp = to_finite(f[14]);
  r.usage.mean_down = to_kbps(f[15]);
  r.usage.peak_down = to_kbps(f[16]);
  r.usage.mean_down_no_bt = to_kbps(f[17]);
  r.usage.peak_down_no_bt = to_kbps(f[18]);
  r.usage.mean_up = to_kbps(f[19]);
  r.usage.peak_up = to_kbps(f[20]);
  r.usage.samples = to_u64(f[21]);
  r.usage.samples_no_bt = to_u64(f[22]);
  r.true_need_mbps = to_finite(f[23]);
  r.archetype = from_label(behavior::all_archetypes(), behavior::archetype_label, f[24]);
  r.bt_user = from_label(std::array{false, true}, bool_label, f[25]);
  return r;
}

}  // namespace

UserReadResult read_user_records_lenient(const std::string& csv_text) {
  auto parsed = parse_csv_lenient(csv_text);
  require(!parsed.rows.empty(), "user records csv: empty file");
  require(parsed.rows.front() == kUserHeader, "user records csv: unexpected header");

  UserReadResult out;
  out.quarantine.rows = std::move(parsed.quarantine.rows);
  std::set<std::pair<std::uint64_t, int>> seen;
  for (std::size_t i = 1; i < parsed.rows.size(); ++i) {
    const auto& f = parsed.rows[i];
    const std::size_t index = parsed.row_indices[i];
    if (f.size() != kUserHeader.size()) {
      out.quarantine.add(index, QuarantineReason::kWrongFieldCount, join_fields(f),
                         "expected " + std::to_string(kUserHeader.size()) +
                             " fields, got " + std::to_string(f.size()));
      continue;
    }
    try {
      UserRecord r = parse_user_row(f);
      if (!seen.insert({r.user_id, r.year}).second) {
        out.quarantine.add(index, QuarantineReason::kDuplicateKey, join_fields(f),
                           "duplicate user_id/year " + f[0] + "/" + f[4]);
        continue;
      }
      out.records.push_back(std::move(r));
    } catch (const std::exception& e) {
      out.quarantine.add(index, QuarantineReason::kBadValue, join_fields(f), e.what());
    }
  }
  out.quarantine.admitted = out.records.size();
  return out;
}

namespace {
const std::vector<std::string> kPlanHeader{
    "isp", "country", "down_mbps", "up_mbps", "price", "cap_gib", "tech", "dedicated"};
}

void write_plans(std::ostream& out, const std::vector<market::ServicePlan>& plans) {
  CsvWriter w{out};
  w.row(kPlanHeader);
  for (const auto& p : plans) {
    w.row({p.isp, p.country_code, fmt(p.download.mbps()), fmt(p.upload.mbps()),
           fmt(p.monthly_price.dollars()),
           p.monthly_cap ? fmt(static_cast<double>(*p.monthly_cap) /
                               static_cast<double>(kGiB))
                         : "",
           market::tech_label(p.tech), bool_label(p.dedicated)});
  }
}

namespace {

const std::vector<std::string> kUpgradeHeader{
    "user_id", "country", "year", "old_mbps", "new_mbps", "old_price", "new_price",
    "b_mean_kbps", "b_peak_kbps", "b_mean_nobt_kbps", "b_peak_nobt_kbps",
    "b_mean_up_kbps", "b_peak_up_kbps", "b_samples", "b_samples_nobt",
    "a_mean_kbps", "a_peak_kbps", "a_mean_nobt_kbps", "a_peak_nobt_kbps",
    "a_mean_up_kbps", "a_peak_up_kbps", "a_samples", "a_samples_nobt"};

void append_summary(std::vector<std::string>& row,
                    const measurement::UsageSummary& s) {
  row.push_back(fmt(s.mean_down.kbps()));
  row.push_back(fmt(s.peak_down.kbps()));
  row.push_back(fmt(s.mean_down_no_bt.kbps()));
  row.push_back(fmt(s.peak_down_no_bt.kbps()));
  row.push_back(fmt(s.mean_up.kbps()));
  row.push_back(fmt(s.peak_up.kbps()));
  row.push_back(std::to_string(s.samples));
  row.push_back(std::to_string(s.samples_no_bt));
}

}  // namespace

void write_upgrades(std::ostream& out, const std::vector<UpgradeObservation>& upgrades) {
  CsvWriter w{out};
  w.row(kUpgradeHeader);
  for (const auto& u : upgrades) {
    std::vector<std::string> row{std::to_string(u.user_id), u.country_code,
                                 std::to_string(u.year), fmt(u.old_capacity.mbps()),
                                 fmt(u.new_capacity.mbps()), fmt(u.old_price.dollars()),
                                 fmt(u.new_price.dollars())};
    append_summary(row, u.before);
    append_summary(row, u.after);
    w.row(row);
  }
}

}  // namespace bblab::dataset
