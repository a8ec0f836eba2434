// Figure pipelines: one function per figure in the paper's evaluation.
//
// Each returns plain data (series of points, ECDFs, matrices); the
// artifact registry (analysis/render.h) renders them as text. Keeping the
// computation here lets integration tests assert on figure shape without
// parsing text output.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/common.h"
#include "causal/experiment.h"
#include "dataset/generator.h"
#include "stats/descriptive.h"
#include "stats/ecdf.h"

namespace bblab::analysis {

// ---------------------------------------------------------------- Fig. 1
/// CDFs of measured download capacity (Mbps), average latency (ms) and
/// average packet loss (%) across all Dasu users.
struct Fig1Result {
  stats::Ecdf capacity_mbps;
  stats::Ecdf latency_ms;
  stats::Ecdf loss_pct;
};
[[nodiscard]] Fig1Result fig1_characteristics(const dataset::StudyDataset& ds);

// ---------------------------------------------------------------- Fig. 2
/// One (capacity bin -> usage) point of a Fig. 2/3/6-style series.
struct BinPoint {
  int bin{0};
  double capacity_mbps{0.0};          ///< bin midpoint
  stats::MeanCi usage_mbps;
  std::size_t users{0};
};
/// Per-bin usage series plus its log-log correlation coefficient.
struct BinSeries {
  std::vector<BinPoint> points;
  double r{0.0};  ///< Pearson r of log10(capacity) vs log10(usage)
};
struct Fig2Result {
  BinSeries mean_bt;    ///< (a) mean, with BitTorrent
  BinSeries peak_bt;    ///< (b) 95th percentile, with BitTorrent
  BinSeries mean_nobt;  ///< (c) mean, no BitTorrent
  BinSeries peak_nobt;  ///< (d) 95th percentile, no BitTorrent
};
[[nodiscard]] Fig2Result fig2_capacity_vs_usage(const dataset::StudyDataset& ds);

// ---------------------------------------------------------------- Fig. 3
struct Fig3Result {
  BinSeries mean_fcc;
  BinSeries mean_dasu_us;   ///< no-BitTorrent periods
  BinSeries peak_fcc;
  BinSeries peak_dasu_us;
  double r_mean{0.0};  ///< pooled over both datasets' bins
  double r_peak{0.0};
};
[[nodiscard]] Fig3Result fig3_fcc_vs_dasu(const dataset::StudyDataset& ds);

// ---------------------------------------------------------------- Fig. 4
struct Fig4Result {
  stats::Ecdf mean_slow;  ///< kbps, no-BT mean usage on the slower service
  stats::Ecdf mean_fast;
  stats::Ecdf peak_slow;
  stats::Ecdf peak_fast;
};
[[nodiscard]] Fig4Result fig4_slow_fast_cdfs(const dataset::StudyDataset& ds);

// ---------------------------------------------------------------- Fig. 5
/// Average demand change when upgrading, by initial tier x target tier.
struct Fig5Cell {
  std::size_t from_tier{0};
  std::size_t to_tier{0};
  stats::MeanCi change_mbps;
  std::size_t users{0};
};
struct Fig5Result {
  /// Tier edges in Mbps: 0.25, 1, 4, 16, 64, 256.
  std::vector<double> tier_edges;
  std::vector<Fig5Cell> mean_bt;
  std::vector<Fig5Cell> peak_bt;
  std::vector<Fig5Cell> mean_nobt;
  std::vector<Fig5Cell> peak_nobt;
};
[[nodiscard]] Fig5Result fig5_upgrade_deltas(const dataset::StudyDataset& ds);

// ---------------------------------------------------------------- Fig. 6
struct Fig6Result {
  /// year -> series, for each of the four panels.
  std::map<int, BinSeries> mean_bt;
  std::map<int, BinSeries> peak_bt;
  std::map<int, BinSeries> mean_nobt;
  std::map<int, BinSeries> peak_nobt;
  /// Natural-experiment check: later-year vs first-year demand within the
  /// same capacity bins (should be inconclusive per §4).
  std::vector<causal::ExperimentResult> year_experiments;
};
[[nodiscard]] Fig6Result fig6_longitudinal(const dataset::StudyDataset& ds);

// ---------------------------------------------------------------- Fig. 7
struct Fig7Country {
  std::string code;
  stats::Ecdf capacity_mbps;
  stats::Ecdf peak_utilization;  ///< fraction of measured capacity
};
using Fig7Result = std::vector<Fig7Country>;
[[nodiscard]] Fig7Result fig7_country_cdfs(const dataset::StudyDataset& ds,
                                           const std::vector<std::string>& countries);

// ---------------------------------------------------------------- Fig. 8
struct Fig8Country {
  std::string code;
  /// (tier label, utilization ECDF) in stats::all_tiers() order, that is
  /// by capacity; only tiers with >= 30 users (paper rule).
  std::vector<std::pair<std::string, stats::Ecdf>> tiers;
};
using Fig8Result = std::vector<Fig8Country>;
[[nodiscard]] Fig8Result fig8_tier_utilization(const dataset::StudyDataset& ds,
                                               const std::vector<std::string>& countries);

// ---------------------------------------------------------------- Fig. 9
struct Fig9Bar {
  std::string country;
  std::string tier;
  stats::MeanCi peak_demand_mbps;
  std::size_t users{0};
};
using Fig9Result = std::vector<Fig9Bar>;
[[nodiscard]] Fig9Result fig9_tier_demand(const dataset::StudyDataset& ds,
                                          const std::vector<std::string>& countries);

// --------------------------------------------------------------- Fig. 10
struct Fig10Result {
  stats::Ecdf upgrade_cost;         ///< $/Mbps across markets with r > 0.4
  double share_strong_corr{0.0};    ///< fraction of markets with r > 0.8
  double share_moderate_corr{0.0};  ///< fraction with r > 0.4
  /// Representative positions: country code -> $/Mbps.
  std::map<std::string, double> examples;
};
[[nodiscard]] Fig10Result fig10_upgrade_cost_cdf(const dataset::StudyDataset& ds);

// --------------------------------------------------------------- Fig. 11
struct Fig11Result {
  stats::Ecdf web14_india;
  stats::Ecdf web14_other;
  stats::Ecdf ndt14_india;
  stats::Ecdf ndt14_other;
  stats::Ecdf ndt1113_india;
  stats::Ecdf ndt1113_other;
};
[[nodiscard]] Fig11Result fig11_india_latency(const dataset::StudyDataset& ds);

// --------------------------------------------------------------- Fig. 12
struct Fig12Result {
  stats::Ecdf loss_pct_india;
  stats::Ecdf loss_pct_other;
};
[[nodiscard]] Fig12Result fig12_india_loss(const dataset::StudyDataset& ds);

// Shared helper: per-capacity-bin usage series over arbitrary records.
[[nodiscard]] BinSeries bin_usage_series(
    std::span<const RecordPtr> records,
    const std::function<double(const dataset::UserRecord&)>& outcome_bps,
    std::size_t min_users_per_bin = 8);

}  // namespace bblab::analysis
