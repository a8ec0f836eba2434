#include "store/bbs.h"

#include <unistd.h>

#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "behavior/archetype.h"
#include "core/fs.h"
#include "core/hash.h"
#include "obs/span.h"

namespace bblab::store {

namespace {

constexpr char kHeaderMagic[8] = {'B', 'B', 'S', 'N', 'A', 'P', '0', '1'};
constexpr char kFooterMagic[8] = {'B', 'B', 'S', 'F', 'T', 'R', '0', '1'};
constexpr std::uint32_t kEndianTag = 0x01020304;
constexpr std::size_t kHeaderSize = 16;   // magic + endian tag + version
constexpr std::size_t kTrailerSize = 24;  // footer size + footer checksum + magic
/// Checksum domain separator so a section checksum can never be confused
/// with a checksum of the same bytes computed elsewhere.
constexpr std::uint64_t kChecksumSeed = 0xBB5C4EC6;
/// Sections in file order; the reader requires every one of them.
constexpr std::array<const char*, 6> kSections = {"config",   "dasu",    "fcc",
                                                  "upgrades", "markets", "qc"};

std::uint64_t checksum(std::string_view bytes) {
  return core::checksum64(bytes.data(), bytes.size(), kChecksumSeed);
}

// ---------------------------------------------------------------------------
// Little-endian byte buffer primitives.

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { word(v); }
  void u64(std::uint64_t v) { word(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Raw bit pattern: NaN payloads and -0.0 survive the round trip.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    raw(s);
  }
  /// Unframed bytes (magics).
  void raw(std::string_view s) { buf_.append(s); }

  [[nodiscard]] const std::string& bytes() const { return buf_; }

 private:
  template <typename T>
  void word(T v) {
    char le[sizeof v];
    core::store_le(le, v);
    buf_.append(le, sizeof le);
  }

  std::string buf_;
};

class ByteReader {
 public:
  ByteReader(std::string_view data, std::string section)
      : data_{data}, section_{std::move(section)} {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  [[nodiscard]] std::uint32_t u32() { return word<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return word<std::uint64_t>(); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] std::string str() {
    const std::uint64_t size = u64();
    need(size);  // allocation is bounded by the section payload size
    std::string s{data_.substr(pos_, size)};
    pos_ += size;
    return s;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  void expect_exhausted() const {
    if (pos_ != data_.size()) {
      throw SnapshotError{QuarantineReason::kFormatMismatch,
                          "section '" + section_ + "' has " +
                              std::to_string(data_.size() - pos_) +
                              " trailing bytes"};
    }
  }

  /// Guard a count read from the payload before resizing containers: a
  /// record needs at least `min_bytes_each` payload bytes, so any larger
  /// count cannot be honest.
  void check_count(std::uint64_t n, std::size_t min_bytes_each) const {
    if (min_bytes_each == 0 || n > data_.size() / min_bytes_each) {
      throw SnapshotError{QuarantineReason::kFormatMismatch,
                          "section '" + section_ + "' claims " + std::to_string(n) +
                              " records but holds only " +
                              std::to_string(data_.size()) + " bytes"};
    }
  }

 private:
  /// One bounds check and one little-endian load per value.
  template <typename T>
  [[nodiscard]] T word() {
    need(sizeof(T));
    const T v = core::load_le<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  void need(std::uint64_t n) {
    if (n > remaining()) {
      throw SnapshotError{QuarantineReason::kFormatMismatch,
                          "section '" + section_ + "' truncated at byte " +
                              std::to_string(pos_)};
    }
  }

  std::string_view data_;
  std::string section_;
  std::size_t pos_{0};
};

// ---------------------------------------------------------------------------
// Section encoders: one field across all records at a time (columnar).

void encode_user_records(ByteWriter& w, const std::vector<dataset::UserRecord>& rs) {
  w.u64(rs.size());
  for (const auto& r : rs) w.u64(r.user_id);
  for (const auto& r : rs) w.u8(static_cast<std::uint8_t>(r.source));
  for (const auto& r : rs) w.str(r.country_code);
  for (const auto& r : rs) w.u8(static_cast<std::uint8_t>(r.region));
  for (const auto& r : rs) w.i64(r.year);
  for (const auto& r : rs) w.f64(r.capacity.bps());
  for (const auto& r : rs) w.f64(r.upload_capacity.bps());
  for (const auto& r : rs) w.f64(r.rtt_ms);
  for (const auto& r : rs) w.f64(r.loss);
  for (const auto& r : rs) w.f64(r.access_price.dollars());
  for (const auto& r : rs) w.f64(r.upgrade_cost_per_mbps);
  for (const auto& r : rs) w.f64(r.plan_price.dollars());
  for (const auto& r : rs) w.f64(r.plan_capacity.bps());
  for (const auto& r : rs) w.u64(r.monthly_cap);
  for (const auto& r : rs) w.f64(r.gdp_per_capita_ppp);
  for (const auto& r : rs) w.f64(r.usage.mean_down.bps());
  for (const auto& r : rs) w.f64(r.usage.peak_down.bps());
  for (const auto& r : rs) w.f64(r.usage.mean_down_no_bt.bps());
  for (const auto& r : rs) w.f64(r.usage.peak_down_no_bt.bps());
  for (const auto& r : rs) w.f64(r.usage.mean_up.bps());
  for (const auto& r : rs) w.f64(r.usage.peak_up.bps());
  for (const auto& r : rs) w.u64(r.usage.samples);
  for (const auto& r : rs) w.u64(r.usage.samples_no_bt);
  for (const auto& r : rs) w.f64(r.true_need_mbps);
  for (const auto& r : rs) w.u8(static_cast<std::uint8_t>(r.archetype));
  for (const auto& r : rs) w.u8(r.bt_user ? 1 : 0);
}

dataset::Source decode_source(std::uint8_t v) {
  if (v > static_cast<std::uint8_t>(dataset::Source::kFcc)) {
    throw SnapshotError{QuarantineReason::kBadValue,
                        "invalid source tag " + std::to_string(v)};
  }
  return static_cast<dataset::Source>(v);
}

market::Region decode_region(std::uint8_t v) {
  if (v > static_cast<std::uint8_t>(market::Region::kOceania)) {
    throw SnapshotError{QuarantineReason::kBadValue,
                        "invalid region tag " + std::to_string(v)};
  }
  return static_cast<market::Region>(v);
}

behavior::Archetype decode_archetype(std::uint8_t v) {
  if (v >= behavior::all_archetypes().size()) {
    throw SnapshotError{QuarantineReason::kBadValue,
                        "invalid archetype tag " + std::to_string(v)};
  }
  return static_cast<behavior::Archetype>(v);
}

std::vector<dataset::UserRecord> decode_user_records(ByteReader& r) {
  const std::uint64_t n = r.u64();
  r.check_count(n, 8);
  std::vector<dataset::UserRecord> rs(n);
  for (auto& rec : rs) rec.user_id = r.u64();
  for (auto& rec : rs) rec.source = decode_source(r.u8());
  for (auto& rec : rs) rec.country_code = r.str();
  for (auto& rec : rs) rec.region = decode_region(r.u8());
  for (auto& rec : rs) rec.year = static_cast<int>(r.i64());
  for (auto& rec : rs) rec.capacity = Rate::from_bps(r.f64());
  for (auto& rec : rs) rec.upload_capacity = Rate::from_bps(r.f64());
  for (auto& rec : rs) rec.rtt_ms = r.f64();
  for (auto& rec : rs) rec.loss = r.f64();
  for (auto& rec : rs) rec.access_price = MoneyPpp::usd(r.f64());
  for (auto& rec : rs) rec.upgrade_cost_per_mbps = r.f64();
  for (auto& rec : rs) rec.plan_price = MoneyPpp::usd(r.f64());
  for (auto& rec : rs) rec.plan_capacity = Rate::from_bps(r.f64());
  for (auto& rec : rs) rec.monthly_cap = r.u64();
  for (auto& rec : rs) rec.gdp_per_capita_ppp = r.f64();
  for (auto& rec : rs) rec.usage.mean_down = Rate::from_bps(r.f64());
  for (auto& rec : rs) rec.usage.peak_down = Rate::from_bps(r.f64());
  for (auto& rec : rs) rec.usage.mean_down_no_bt = Rate::from_bps(r.f64());
  for (auto& rec : rs) rec.usage.peak_down_no_bt = Rate::from_bps(r.f64());
  for (auto& rec : rs) rec.usage.mean_up = Rate::from_bps(r.f64());
  for (auto& rec : rs) rec.usage.peak_up = Rate::from_bps(r.f64());
  for (auto& rec : rs) rec.usage.samples = r.u64();
  for (auto& rec : rs) rec.usage.samples_no_bt = r.u64();
  for (auto& rec : rs) rec.true_need_mbps = r.f64();
  for (auto& rec : rs) rec.archetype = decode_archetype(r.u8());
  for (auto& rec : rs) rec.bt_user = r.u8() != 0;
  return rs;
}

void encode_summary_columns(ByteWriter& w,
                            const std::vector<dataset::UpgradeObservation>& us,
                            const measurement::UsageSummary dataset::UpgradeObservation::*field) {
  for (const auto& u : us) w.f64((u.*field).mean_down.bps());
  for (const auto& u : us) w.f64((u.*field).peak_down.bps());
  for (const auto& u : us) w.f64((u.*field).mean_down_no_bt.bps());
  for (const auto& u : us) w.f64((u.*field).peak_down_no_bt.bps());
  for (const auto& u : us) w.f64((u.*field).mean_up.bps());
  for (const auto& u : us) w.f64((u.*field).peak_up.bps());
  for (const auto& u : us) w.u64((u.*field).samples);
  for (const auto& u : us) w.u64((u.*field).samples_no_bt);
}

void decode_summary_columns(ByteReader& r, std::vector<dataset::UpgradeObservation>& us,
                            measurement::UsageSummary dataset::UpgradeObservation::*field) {
  for (auto& u : us) (u.*field).mean_down = Rate::from_bps(r.f64());
  for (auto& u : us) (u.*field).peak_down = Rate::from_bps(r.f64());
  for (auto& u : us) (u.*field).mean_down_no_bt = Rate::from_bps(r.f64());
  for (auto& u : us) (u.*field).peak_down_no_bt = Rate::from_bps(r.f64());
  for (auto& u : us) (u.*field).mean_up = Rate::from_bps(r.f64());
  for (auto& u : us) (u.*field).peak_up = Rate::from_bps(r.f64());
  for (auto& u : us) (u.*field).samples = r.u64();
  for (auto& u : us) (u.*field).samples_no_bt = r.u64();
}

void encode_upgrades(ByteWriter& w, const std::vector<dataset::UpgradeObservation>& us) {
  w.u64(us.size());
  for (const auto& u : us) w.u64(u.user_id);
  for (const auto& u : us) w.str(u.country_code);
  for (const auto& u : us) w.i64(u.year);
  for (const auto& u : us) w.f64(u.old_capacity.bps());
  for (const auto& u : us) w.f64(u.new_capacity.bps());
  for (const auto& u : us) w.f64(u.old_price.dollars());
  for (const auto& u : us) w.f64(u.new_price.dollars());
  encode_summary_columns(w, us, &dataset::UpgradeObservation::before);
  encode_summary_columns(w, us, &dataset::UpgradeObservation::after);
}

std::vector<dataset::UpgradeObservation> decode_upgrades(ByteReader& r) {
  const std::uint64_t n = r.u64();
  r.check_count(n, 8);
  std::vector<dataset::UpgradeObservation> us(n);
  for (auto& u : us) u.user_id = r.u64();
  for (auto& u : us) u.country_code = r.str();
  for (auto& u : us) u.year = static_cast<int>(r.i64());
  for (auto& u : us) u.old_capacity = Rate::from_bps(r.f64());
  for (auto& u : us) u.new_capacity = Rate::from_bps(r.f64());
  for (auto& u : us) u.old_price = MoneyPpp::usd(r.f64());
  for (auto& u : us) u.new_price = MoneyPpp::usd(r.f64());
  decode_summary_columns(r, us, &dataset::UpgradeObservation::before);
  decode_summary_columns(r, us, &dataset::UpgradeObservation::after);
  return us;
}

void encode_plan(ByteWriter& w, const market::ServicePlan& p) {
  w.str(p.isp);
  w.str(p.country_code);
  w.f64(p.download.bps());
  w.f64(p.upload.bps());
  w.f64(p.monthly_price.dollars());
  w.u8(p.monthly_cap.has_value() ? 1 : 0);
  w.u64(p.monthly_cap.value_or(0));
  w.u8(static_cast<std::uint8_t>(p.tech));
  w.u8(p.dedicated ? 1 : 0);
}

market::ServicePlan decode_plan(ByteReader& r) {
  market::ServicePlan p;
  p.isp = r.str();
  p.country_code = r.str();
  p.download = Rate::from_bps(r.f64());
  p.upload = Rate::from_bps(r.f64());
  p.monthly_price = MoneyPpp::usd(r.f64());
  const bool has_cap = r.u8() != 0;
  const std::uint64_t cap = r.u64();
  if (has_cap) p.monthly_cap = cap;
  const std::uint8_t tech = r.u8();
  if (tech > static_cast<std::uint8_t>(market::AccessTech::kSatellite)) {
    throw SnapshotError{QuarantineReason::kBadValue,
                        "invalid access-tech tag " + std::to_string(tech)};
  }
  p.tech = static_cast<market::AccessTech>(tech);
  p.dedicated = r.u8() != 0;
  return p;
}

void encode_markets(ByteWriter& w,
                    const std::map<std::string, dataset::MarketSnapshot>& markets) {
  w.u64(markets.size());
  for (const auto& [code, snap] : markets) {
    w.str(code);
    w.f64(snap.access_price.dollars());
    w.f64(snap.upgrade_cost_per_mbps);
    w.f64(snap.price_capacity_r);
    w.f64(snap.choice.wtp_multiplier());
    w.u64(snap.catalog.size());
    for (const auto& plan : snap.catalog.plans()) encode_plan(w, plan);
  }
}

std::map<std::string, dataset::MarketSnapshot> decode_markets(
    ByteReader& r, const market::World& world) {
  const std::uint64_t n = r.u64();
  r.check_count(n, 8);
  std::map<std::string, dataset::MarketSnapshot> markets;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::string code = r.str();
    if (!world.contains(code)) {
      throw SnapshotError{QuarantineReason::kBadValue,
                          "snapshot references unknown country '" + code + "'"};
    }
    dataset::MarketSnapshot snap;
    snap.country = &world.at(code);
    snap.access_price = MoneyPpp::usd(r.f64());
    snap.upgrade_cost_per_mbps = r.f64();
    snap.price_capacity_r = r.f64();
    snap.choice = market::ChoiceModel{r.f64()};
    const std::uint64_t n_plans = r.u64();
    r.check_count(n_plans, 8);
    std::vector<market::ServicePlan> plans;
    plans.reserve(n_plans);
    for (std::uint64_t p = 0; p < n_plans; ++p) plans.push_back(decode_plan(r));
    snap.catalog = market::PlanCatalog{std::move(plans)};
    markets.emplace(code, std::move(snap));
  }
  return markets;
}

void encode_faults(ByteWriter& w, const faults::FaultPlan& plan) {
  w.u64(plan.seed);
  w.f64(plan.churn_probability);
  w.f64(plan.mean_outage_hours);
  w.f64(plan.blackout_probability);
  w.f64(plan.mean_blackout_hours);
  w.f64(plan.reset_probability);
  w.f64(plan.spurious_wrap_probability);
  w.f64(plan.clock_skew_probability);
  w.f64(plan.max_clock_skew_s);
  w.f64(plan.row_duplicate_probability);
  w.f64(plan.row_corrupt_probability);
  w.f64(plan.row_truncate_probability);
  w.f64(plan.household_failure_probability);
}

faults::FaultPlan decode_faults(ByteReader& r) {
  faults::FaultPlan plan;
  plan.seed = r.u64();
  plan.churn_probability = r.f64();
  plan.mean_outage_hours = r.f64();
  plan.blackout_probability = r.f64();
  plan.mean_blackout_hours = r.f64();
  plan.reset_probability = r.f64();
  plan.spurious_wrap_probability = r.f64();
  plan.clock_skew_probability = r.f64();
  plan.max_clock_skew_s = r.f64();
  plan.row_duplicate_probability = r.f64();
  plan.row_corrupt_probability = r.f64();
  plan.row_truncate_probability = r.f64();
  plan.household_failure_probability = r.f64();
  return plan;
}

void encode_config(ByteWriter& w, const dataset::StudyConfig& c) {
  w.u64(c.seed);
  w.u64(c.threads);
  w.f64(c.population_scale);
  w.f64(c.window_days);
  w.f64(c.dasu_bin_s);
  w.u64(c.fcc_users);
  w.f64(c.fcc_window_days);
  w.i64(c.first_year);
  w.i64(c.last_year);
  w.f64(c.upgrade_follow_share);
  w.i64(c.upgrade_horizon_years);
  w.f64(c.exogenous_upgrade_share);
  w.f64(c.annual_subscriber_growth);
  w.f64(c.annual_need_growth);
  encode_faults(w, c.faults);
  w.f64(c.max_household_failure_rate);
  w.u64(c.coverage.min_samples);
  w.f64(c.coverage.min_days);
  w.u8(c.placebo ? 1 : 0);
  w.u8(c.disable_capacity_effect ? 1 : 0);
  w.u8(c.disable_pressure_effect ? 1 : 0);
  w.u8(c.disable_quality_effect ? 1 : 0);
}

dataset::StudyConfig decode_config(ByteReader& r) {
  dataset::StudyConfig c;
  c.seed = r.u64();
  c.threads = r.u64();
  c.population_scale = r.f64();
  c.window_days = r.f64();
  c.dasu_bin_s = r.f64();
  c.fcc_users = r.u64();
  c.fcc_window_days = r.f64();
  c.first_year = static_cast<int>(r.i64());
  c.last_year = static_cast<int>(r.i64());
  c.upgrade_follow_share = r.f64();
  c.upgrade_horizon_years = static_cast<int>(r.i64());
  c.exogenous_upgrade_share = r.f64();
  c.annual_subscriber_growth = r.f64();
  c.annual_need_growth = r.f64();
  c.faults = decode_faults(r);
  c.max_household_failure_rate = r.f64();
  c.coverage.min_samples = r.u64();
  c.coverage.min_days = r.f64();
  c.placebo = r.u8() != 0;
  c.disable_capacity_effect = r.u8() != 0;
  c.disable_pressure_effect = r.u8() != 0;
  c.disable_quality_effect = r.u8() != 0;
  return c;
}

void encode_qc(ByteWriter& w, const core::QuarantineReport& qc) {
  w.u64(qc.admitted);
  w.u64(qc.rows.size());
  for (const auto& row : qc.rows) {
    w.u64(row.index);
    w.u8(static_cast<std::uint8_t>(row.reason));
    w.str(row.raw);
    w.str(row.detail);
  }
}

core::QuarantineReport decode_qc(ByteReader& r) {
  core::QuarantineReport qc;
  qc.admitted = r.u64();
  const std::uint64_t n = r.u64();
  r.check_count(n, 8);
  qc.rows.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    core::QuarantinedRow row;
    row.index = r.u64();
    const std::uint8_t reason = r.u8();
    if (reason > static_cast<std::uint8_t>(kMaxQuarantineReason)) {
      throw SnapshotError{QuarantineReason::kBadValue,
                          "invalid quarantine reason tag " + std::to_string(reason)};
    }
    row.reason = static_cast<QuarantineReason>(reason);
    row.raw = r.str();
    row.detail = r.str();
    qc.rows.push_back(std::move(row));
  }
  return qc;
}

// ---------------------------------------------------------------------------
// Framing.

/// Bounds-checked slice of a snapshot's byte image: a range that
/// leaves the file is framing damage, never an out-of-bounds read.
std::string_view slice(std::string_view file, std::uint64_t offset,
                       std::uint64_t size) {
  if (offset > file.size() || size > file.size() - offset) {
    throw SnapshotError{QuarantineReason::kFormatMismatch,
                        "short read at offset " + std::to_string(offset)};
  }
  return file.substr(offset, size);
}

void check_header(std::string_view header) {
  if (header.size() != kHeaderSize ||
      std::memcmp(header.data(), kHeaderMagic, sizeof kHeaderMagic) != 0) {
    throw SnapshotError{QuarantineReason::kFormatMismatch, "not a .bbs snapshot"};
  }
  ByteReader r{header.substr(sizeof kHeaderMagic), "header"};
  const std::uint32_t endian = r.u32();
  if (endian != kEndianTag) {
    throw SnapshotError{QuarantineReason::kFormatMismatch,
                        "endian tag mismatch (corrupt header or foreign writer)"};
  }
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion) {
    throw SnapshotError{QuarantineReason::kFormatMismatch,
                        "snapshot format version " + std::to_string(version) +
                            ", this library reads version " +
                            std::to_string(kFormatVersion)};
  }
}

SnapshotInfo read_index(std::string_view file) {
  const std::uint64_t file_size = file.size();
  if (file_size < kHeaderSize + kTrailerSize) {
    throw SnapshotError{QuarantineReason::kFormatMismatch,
                        "file too small to be a .bbs snapshot (" +
                            std::to_string(file_size) + " bytes)"};
  }
  check_header(slice(file, 0, kHeaderSize));

  const std::string_view trailer = slice(file, file_size - kTrailerSize, kTrailerSize);
  if (std::memcmp(trailer.data() + 16, kFooterMagic, sizeof kFooterMagic) != 0) {
    throw SnapshotError{QuarantineReason::kFormatMismatch,
                        "footer magic missing (truncated or overwritten file)"};
  }
  ByteReader tr{trailer.substr(0, 16), "trailer"};
  const std::uint64_t footer_size = tr.u64();
  const std::uint64_t footer_checksum = tr.u64();
  if (footer_size > file_size - kHeaderSize - kTrailerSize) {
    throw SnapshotError{QuarantineReason::kFormatMismatch,
                        "footer size " + std::to_string(footer_size) +
                            " exceeds file size"};
  }
  const std::uint64_t footer_offset = file_size - kTrailerSize - footer_size;
  const std::string_view footer = slice(file, footer_offset, footer_size);
  if (checksum(footer) != footer_checksum) {
    throw SnapshotError{QuarantineReason::kChecksumMismatch,
                        "footer index failed its checksum"};
  }

  SnapshotInfo info;
  info.version = kFormatVersion;
  info.file_size = file_size;
  ByteReader fr{footer, "footer"};
  const std::uint64_t n_sections = fr.u64();
  fr.check_count(n_sections, 8);
  for (std::uint64_t i = 0; i < n_sections; ++i) {
    SectionInfo s;
    s.name = fr.str();
    s.offset = fr.u64();
    s.size = fr.u64();
    s.checksum = fr.u64();
    if (s.offset < kHeaderSize || s.size > footer_offset ||
        s.offset > footer_offset - s.size) {
      throw SnapshotError{QuarantineReason::kFormatMismatch,
                          "section '" + s.name + "' extends outside the file"};
    }
    info.sections.push_back(std::move(s));
  }
  fr.expect_exhausted();
  return info;
}

/// Locate and checksum-verify one section payload: a zero-copy slice of
/// `file`, valid as long as `file` is. Verification happens *before* the
/// view escapes: corrupt bytes are never visible through the return
/// value.
std::string_view load_section(std::string_view file, const SnapshotInfo& info,
                              std::string_view name) {
  for (const auto& s : info.sections) {
    if (s.name != name) continue;
    const std::string_view payload = slice(file, s.offset, s.size);
    if (checksum(payload) != s.checksum) {
      throw SnapshotError{QuarantineReason::kChecksumMismatch,
                          "section '" + std::string{name} + "' failed its checksum"};
    }
    return payload;
  }
  throw SnapshotError{QuarantineReason::kFormatMismatch,
                      "snapshot is missing section '" + std::string{name} + "'"};
}

}  // namespace

void write_snapshot(std::ostream& out, const dataset::StudyDataset& ds) {
  const auto put = [&](std::string_view bytes) {
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  // Header.
  ByteWriter header;
  header.raw({kHeaderMagic, sizeof kHeaderMagic});
  header.u32(kEndianTag);
  header.u32(kFormatVersion);
  put(header.bytes());

  // Sections, sequentially after the header, in kSections order.
  std::vector<SectionInfo> sections;
  std::uint64_t offset = kHeaderSize;
  const auto emit = [&](const char* name, auto&& encode) {
    ByteWriter w;
    encode(w);
    const std::string& payload = w.bytes();
    sections.push_back({name, offset, payload.size(), checksum(payload)});
    put(payload);
    offset += payload.size();
  };
  emit(kSections[0], [&](ByteWriter& w) { encode_config(w, ds.config); });
  emit(kSections[1], [&](ByteWriter& w) { encode_user_records(w, ds.dasu); });
  emit(kSections[2], [&](ByteWriter& w) { encode_user_records(w, ds.fcc); });
  emit(kSections[3], [&](ByteWriter& w) { encode_upgrades(w, ds.upgrades); });
  emit(kSections[4], [&](ByteWriter& w) { encode_markets(w, ds.markets); });
  emit(kSections[5], [&](ByteWriter& w) { encode_qc(w, ds.qc); });

  // Footer index + trailer.
  ByteWriter footer;
  footer.u64(sections.size());
  for (const auto& s : sections) {
    footer.str(s.name);
    footer.u64(s.offset);
    footer.u64(s.size);
    footer.u64(s.checksum);
  }
  put(footer.bytes());
  ByteWriter trailer;
  trailer.u64(footer.bytes().size());
  trailer.u64(checksum(footer.bytes()));
  trailer.raw({kFooterMagic, sizeof kFooterMagic});
  put(trailer.bytes());
  if (!out) throw IoError{"write_snapshot: stream write failed"};
}

std::filesystem::path snapshot_tmp_path(const std::filesystem::path& path) {
  // Unique per process so two writers racing on the same entry never
  // scribble on each other's temp file; the rename decides the winner.
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  return path.string() + ".p" + std::to_string(::getpid()) + "." +
         std::to_string(n) + ".tmp";
}

void write_snapshot_file(const std::filesystem::path& path,
                         const dataset::StudyDataset& ds, core::FileSystem& fs) {
  if (path.has_parent_path()) fs.create_directories(path.parent_path());
  std::ostringstream buffer{std::ios::binary};
  write_snapshot(buffer, ds);
  const std::filesystem::path tmp = snapshot_tmp_path(path);
  try {
    fs.write_file(tmp, buffer.view());
    fs.rename(tmp, path);  // atomic publish on POSIX
  } catch (...) {
    // Best-effort residue cleanup; the original failure is the story.
    try {
      fs.remove(tmp);
    } catch (...) {
    }
    throw;
  }
}

namespace {

/// Convert stray exceptions (ios failures, std::bad_alloc from a bogus
/// reserve, length_error...) into the typed rejection the API promises:
/// a damaged snapshot file always surfaces as SnapshotError, never as an
/// uncaught implementation detail.
template <typename Fn>
auto guard_decode(const char* what, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const SnapshotError&) {
    throw;
  } catch (const std::exception& e) {
    throw SnapshotError{QuarantineReason::kFormatMismatch,
                        std::string{what} + ": unexpected decode failure: " +
                            e.what()};
  }
}

/// Run `decode` over a whole section payload; leftover bytes are damage.
template <typename Decode>
auto decode_section(std::string_view payload, const char* name, Decode&& decode) {
  ByteReader r{payload, name};
  auto value = decode(r);
  r.expect_exhausted();
  return value;
}

/// Decode a full dataset from a snapshot's byte image. Every section is
/// checksum-verified before any is decoded; each decoder then reads its
/// columns straight out of `file` into the destination vectors, and no
/// section is copied on the way.
dataset::StudyDataset decode_dataset(std::string_view file, const SnapshotInfo& info,
                                     const market::World& world) {
  std::array<std::string_view, kSections.size()> payload;
  {
    OBS_SPAN("bbs.verify");
    for (std::size_t i = 0; i < kSections.size(); ++i) {
      payload[i] = load_section(file, info, kSections[i]);
    }
  }
  OBS_SPAN("bbs.decode");
  dataset::StudyDataset ds;
  ds.config = decode_section(payload[0], kSections[0], decode_config);
  ds.dasu = decode_section(payload[1], kSections[1], decode_user_records);
  ds.fcc = decode_section(payload[2], kSections[2], decode_user_records);
  ds.upgrades = decode_section(payload[3], kSections[3], decode_upgrades);
  ds.markets = decode_section(payload[4], kSections[4], [&](ByteReader& r) {
    return decode_markets(r, world);
  });
  ds.qc = decode_section(payload[5], kSections[5], decode_qc);
  return ds;
}

}  // namespace

dataset::StudyDataset read_snapshot(std::string_view bytes,
                                    const market::World& world) {
  return guard_decode("read_snapshot", [&] {
    return decode_dataset(bytes, read_index(bytes), world);
  });
}

dataset::StudyDataset read_snapshot_file(const std::filesystem::path& path,
                                         const market::World& world) {
  return SnapshotView::open(path).dataset(world);
}

SnapshotView SnapshotView::open(const std::filesystem::path& path) {
  return SnapshotView{MappedFile::open(path)};
}

SnapshotView::SnapshotView(MappedFile file) : file_{std::move(file)} {
  info_ = guard_decode("SnapshotView", [&] { return read_index(file_.view()); });
}

std::string_view SnapshotView::section(const std::string& name) const {
  return guard_decode("SnapshotView::section",
                      [&] { return load_section(file_.view(), info_, name); });
}

dataset::StudyConfig SnapshotView::config() const {
  return guard_decode("SnapshotView::config", [&] {
    return decode_section(section(kSections[0]), kSections[0], decode_config);
  });
}

dataset::StudyDataset SnapshotView::dataset(const market::World& world) const {
  return guard_decode("SnapshotView::dataset",
                      [&] { return decode_dataset(file_.view(), info_, world); });
}

namespace {

void hash_raw(core::Hasher& h, double v) { h.update_u64(std::bit_cast<std::uint64_t>(v)); }

void hash_summary(core::Hasher& h, const measurement::UsageSummary& s) {
  hash_raw(h, s.mean_down.bps());
  hash_raw(h, s.peak_down.bps());
  hash_raw(h, s.mean_down_no_bt.bps());
  hash_raw(h, s.peak_down_no_bt.bps());
  hash_raw(h, s.mean_up.bps());
  hash_raw(h, s.peak_up.bps());
  h.update_u64(s.samples);
  h.update_u64(s.samples_no_bt);
}

void hash_record(core::Hasher& h, const dataset::UserRecord& r) {
  h.update_u64(r.user_id);
  h.update_u8(static_cast<std::uint8_t>(r.source));
  h.update_string(r.country_code);
  h.update_u8(static_cast<std::uint8_t>(r.region));
  h.update_i64(r.year);
  hash_raw(h, r.capacity.bps());
  hash_raw(h, r.upload_capacity.bps());
  hash_raw(h, r.rtt_ms);
  hash_raw(h, r.loss);
  hash_raw(h, r.access_price.dollars());
  hash_raw(h, r.upgrade_cost_per_mbps);
  hash_raw(h, r.plan_price.dollars());
  hash_raw(h, r.plan_capacity.bps());
  h.update_u64(r.monthly_cap);
  hash_raw(h, r.gdp_per_capita_ppp);
  hash_summary(h, r.usage);
  hash_raw(h, r.true_need_mbps);
  h.update_u8(static_cast<std::uint8_t>(r.archetype));
  h.update_bool(r.bt_user);
}

}  // namespace

std::uint64_t content_hash(const dataset::StudyDataset& ds) {
  // Bit-level, order-sensitive: reuse the on-disk encoders for the parts
  // the snapshot stores verbatim, so content_hash(ds) is by construction
  // invariant under a write -> read round trip.
  core::Hasher h{0xB175};
  {
    ByteWriter w;
    encode_config(w, ds.config);
    h.update_string(w.bytes());
  }
  h.update_u64(ds.dasu.size());
  for (const auto& r : ds.dasu) hash_record(h, r);
  h.update_u64(ds.fcc.size());
  for (const auto& r : ds.fcc) hash_record(h, r);
  {
    ByteWriter w;
    encode_upgrades(w, ds.upgrades);
    h.update_string(w.bytes());
  }
  {
    ByteWriter w;
    encode_markets(w, ds.markets);
    h.update_string(w.bytes());
  }
  {
    ByteWriter w;
    encode_qc(w, ds.qc);
    h.update_string(w.bytes());
  }
  return h.digest();
}

}  // namespace bblab::store
