// The paper's demand metrics.
//
// The analysis reduces each user's traffic to two numbers per direction:
// the mean rate and the "peak" rate defined as the 95th percentile of the
// sampled demand (§3.1) — each computed both over all samples and
// restricted to periods when BitTorrent was not active. The samples are
// never kept as a series: each is appended to SummaryColumns as it is
// taken, and the columns are reduced once per household.
#pragma once

#include <vector>

#include "core/units.h"

namespace bblab::measurement {

/// The per-user demand summary every experiment consumes.
struct UsageSummary {
  Rate mean_down;
  Rate peak_down;          ///< 95th percentile
  Rate mean_down_no_bt;
  Rate peak_down_no_bt;
  Rate mean_up;
  Rate peak_up;
  std::size_t samples{0};
  std::size_t samples_no_bt{0};

  /// Fraction of samples with BitTorrent activity.
  [[nodiscard]] double bt_share() const {
    return samples > 0
               ? 1.0 - static_cast<double>(samples_no_bt) / static_cast<double>(samples)
               : 0.0;
  }

  /// Field-wise equality (IEEE semantics: NaN != NaN). Snapshot tests
  /// that need bit-level equality compare store::content_hash instead.
  friend bool operator==(const UsageSummary&, const UsageSummary&) = default;
};

/// The three sample columns a UsageSummary is computed from, in sample
/// order: down and up rate of every sample, and down rate of the samples
/// without BitTorrent activity. Reused across households as scratch, so
/// after the first household filling it allocates nothing.
struct SummaryColumns {
  std::vector<double> down;
  std::vector<double> up;
  std::vector<double> down_no_bt;

  void clear() {
    down.clear();
    up.clear();
    down_no_bt.clear();
  }
  void reserve(std::size_t samples) {
    down.reserve(samples);
    up.reserve(samples);
    down_no_bt.reserve(samples);
  }
  void add(Rate down_rate, Rate up_rate, bool bt_active) {
    down.push_back(down_rate.bps());
    up.push_back(up_rate.bps());
    if (!bt_active) down_no_bt.push_back(down_rate.bps());
  }
};

/// Summarize sample columns. Means sum in sample order; peaks are p95 by
/// selection (stats::quantile_select), which reorders the columns.
[[nodiscard]] UsageSummary summarize(SummaryColumns& columns);

}  // namespace bblab::measurement
