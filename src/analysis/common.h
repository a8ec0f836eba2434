// Shared plumbing for the per-figure/table analysis pipelines.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "causal/matching.h"
#include "core/quarantine.h"
#include "dataset/generator.h"
#include "dataset/user_record.h"
#include "stats/binning.h"
#include "stats/column.h"

namespace bblab::analysis {

using RecordPtr = const dataset::UserRecord*;

/// The paper's four case-study markets (§5, Tab. 4, Fig. 7-9):
/// Botswana, Saudi Arabia, US, Japan, in the order of rising capacity.
inline const std::vector<std::string> kCaseStudyMarkets{"BW", "SA", "US", "JP"};

/// Demand metric selectors (bps).
[[nodiscard]] inline double mean_down_bps(const dataset::UserRecord& r, bool with_bt) {
  return with_bt ? r.usage.mean_down.bps() : r.usage.mean_down_no_bt.bps();
}
[[nodiscard]] inline double peak_down_bps(const dataset::UserRecord& r, bool with_bt) {
  return with_bt ? r.usage.peak_down.bps() : r.usage.peak_down_no_bt.bps();
}

/// Apply the dataset's coverage rule: keep records with enough observed
/// samples/days (at `bin_s` seconds per sample), counting the dropped
/// ones into `qc` (reason insufficient-coverage) when provided.
[[nodiscard]] std::vector<RecordPtr> coverage_filter(
    std::span<const RecordPtr> records, const dataset::CoverageRule& rule,
    double bin_s, core::QuarantineReport* qc = nullptr);

/// All Dasu records, optionally restricted to one country / year. Both
/// accessors apply the dataset's coverage filter (ds.config.coverage), so
/// every analysis downstream sees only users the paper would have kept.
[[nodiscard]] std::vector<RecordPtr> dasu_records(const dataset::StudyDataset& ds);
[[nodiscard]] std::vector<RecordPtr> fcc_records(const dataset::StudyDataset& ds);

[[nodiscard]] std::vector<RecordPtr> filter(
    std::span<const RecordPtr> records,
    const std::function<bool(const dataset::UserRecord&)>& keep);

/// Extract a column.
[[nodiscard]] std::vector<double> column(
    std::span<const RecordPtr> records,
    const std::function<double(const dataset::UserRecord&)>& get);

/// Structure-of-arrays mirror of a filtered record set: the fields the
/// distributional figures consume, extracted once in record order. Row i
/// of every column is records[i] — the same column-major shape the `.bbs`
/// snapshot sections use, so the batched kernels in stats/column.h
/// (radix group-by, merge ECDF evaluation) apply directly instead of
/// chasing UserRecord pointers per access.
struct RecordColumns {
  std::vector<double> capacity_mbps;
  std::vector<double> rtt_ms;
  std::vector<double> loss_pct;                 ///< loss * 100
  std::vector<double> peak_utilization_no_bt;   ///< clamped to 1.0
  std::vector<std::uint64_t> year;
  std::vector<std::uint64_t> country;           ///< pack_country(country_code)
  std::vector<std::uint64_t> user_id;

  [[nodiscard]] std::size_t size() const { return capacity_mbps.size(); }
};

[[nodiscard]] RecordColumns extract_columns(std::span<const RecordPtr> records);

/// ISO country code as a radix-sortable u64 key (big-endian byte packing,
/// so u64 order == lexicographic order on the code).
[[nodiscard]] std::uint64_t pack_country(std::string_view code);

/// Gather col[i] for each i in `idx` (a GroupBy segment or filter result).
[[nodiscard]] std::vector<double> gather(std::span<const double> col,
                                         std::span<const std::uint32_t> idx);

/// The per-record numbers the natural experiments match on or score.
enum class Field : std::uint8_t {
  kCapacityMbps,
  kRttMs,
  kLoss,
  kAccessPriceUsd,
  kUpgradeCostPerMbps,
  kMeanDownBps,      ///< mean demand, BitTorrent included
  kMeanDownNoBtBps,  ///< mean demand, BitTorrent excluded
  kPeakDownBps,      ///< p95 demand, BitTorrent included
  kPeakDownNoBtBps,  ///< p95 demand, BitTorrent excluded
};

[[nodiscard]] inline double field_value(const dataset::UserRecord& r, Field f) {
  switch (f) {
    case Field::kCapacityMbps: return r.capacity.mbps();
    case Field::kRttMs: return r.rtt_ms;
    case Field::kLoss: return r.loss;
    case Field::kAccessPriceUsd: return r.access_price.dollars();
    case Field::kUpgradeCostPerMbps: return r.upgrade_cost_per_mbps;
    case Field::kMeanDownBps: return mean_down_bps(r, true);
    case Field::kMeanDownNoBtBps: return mean_down_bps(r, false);
    case Field::kPeakDownBps: return peak_down_bps(r, true);
    case Field::kPeakDownNoBtBps: return peak_down_bps(r, false);
  }
  return std::numeric_limits<double>::quiet_NaN();
}

/// Demand outcome fields, selected like mean_down_bps / peak_down_bps.
[[nodiscard]] constexpr Field mean_down_field(bool with_bt) {
  return with_bt ? Field::kMeanDownBps : Field::kMeanDownNoBtBps;
}
[[nodiscard]] constexpr Field peak_down_field(bool with_bt) {
  return with_bt ? Field::kPeakDownBps : Field::kPeakDownNoBtBps;
}

/// Split `records` into `groups` lists in one pass, keeping record order
/// within each list: a record goes to list group_of(record) when that
/// index is below `groups`, and to no list otherwise.
template <class GroupOf>
[[nodiscard]] std::vector<std::vector<RecordPtr>> partition(
    std::span<const RecordPtr> records, std::size_t groups, GroupOf group_of) {
  std::vector<std::vector<RecordPtr>> out(groups);
  for (const auto* r : records) {
    const std::size_t g = group_of(*r);
    if (g < groups) out[g].push_back(r);
  }
  return out;
}

/// partition() into the right-closed bands of `bands`, keyed by `field`.
[[nodiscard]] std::vector<std::vector<RecordPtr>> partition(
    std::span<const RecordPtr> records, const stats::EdgeBins& bands, Field field);

/// Build matching units in one pass: the `outcome` field plus the
/// `covariates` fields of each record, tagged with the record's index.
/// Records where any of them is not finite are skipped (e.g. undefined
/// market upgrade cost).
[[nodiscard]] causal::UnitTable make_units(std::span<const RecordPtr> records,
                                           Field outcome,
                                           std::span<const Field> covariates);

/// The standard confounder sets used across the experiments.
namespace covariates {
inline constexpr std::array kQualityAndMarket{  ///< rtt, loss, access price, upgrade cost
    Field::kRttMs, Field::kLoss, Field::kAccessPriceUsd, Field::kUpgradeCostPerMbps};
inline constexpr std::array kCapacityQuality{  ///< capacity, rtt, loss
    Field::kCapacityMbps, Field::kRttMs, Field::kLoss};
inline constexpr std::array kQuality{  ///< rtt, loss (within-market designs, e.g. FCC)
    Field::kRttMs, Field::kLoss};
inline constexpr std::array kPriceExperiment{  ///< capacity, rtt, loss, upgrade cost
    Field::kCapacityMbps, Field::kRttMs, Field::kLoss, Field::kUpgradeCostPerMbps};
inline constexpr std::array kUpgradeCostExperiment{  ///< capacity, rtt, loss, access price
    Field::kCapacityMbps, Field::kRttMs, Field::kLoss, Field::kAccessPriceUsd};
inline constexpr std::array kLatencyExperiment{  ///< capacity, loss, access price
    Field::kCapacityMbps, Field::kLoss, Field::kAccessPriceUsd};
inline constexpr std::array kLossExperiment{  ///< capacity, rtt, access price
    Field::kCapacityMbps, Field::kRttMs, Field::kAccessPriceUsd};
inline constexpr std::array kCapacity{Field::kCapacityMbps};
}  // namespace covariates

}  // namespace bblab::analysis
