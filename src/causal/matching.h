// Nearest-neighbor matching with calipers.
//
// The paper's study design (§2.3, §3.2): to compare a "treated" group with
// a "control" group observationally, pair each treated user with the most
// similar control user, requiring every confounding covariate to agree
// within a 25% caliper ("users with latencies of 50 and 62 ms ... are
// considered sufficiently similar"); unmatched users drop out. Matching is
// one-to-one without replacement, greedy in ascending distance, which
// approximates optimal matching well at these sample sizes.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "core/thread_pool.h"

namespace bblab::causal {

/// One group of observational units as a table: an outcome column, a
/// row-major n x dim() covariate matrix (the covariates that must be
/// balanced between groups), and an opaque per-row tag that callers use
/// to map matches back to their records.
class UnitTable {
 public:
  UnitTable() = default;
  explicit UnitTable(std::size_t dim) : dim_{dim} {}

  /// Append a unit. Throws InvalidArgument unless `covariates` holds
  /// exactly dim() finite values.
  void push_back(double outcome, std::span<const double> covariates, std::size_t tag);
  /// Append a unit tagged with its row index.
  void push_back(double outcome, std::initializer_list<double> covariates) {
    push_back(outcome, std::span<const double>{covariates.begin(), covariates.size()},
              size());
  }
  void reserve(std::size_t units);

  [[nodiscard]] std::size_t size() const { return outcomes_.size(); }
  [[nodiscard]] bool empty() const { return outcomes_.empty(); }
  [[nodiscard]] std::size_t dim() const { return dim_; }

  [[nodiscard]] double outcome(std::size_t i) const { return outcomes_[i]; }
  [[nodiscard]] std::span<const double> covariates(std::size_t i) const {
    return {values_.data() + i * dim_, dim_};
  }
  [[nodiscard]] std::size_t tag(std::size_t i) const { return tags_[i]; }

 private:
  std::size_t dim_{0};
  std::vector<double> outcomes_;
  std::vector<double> values_;  ///< row-major, size() * dim_
  std::vector<std::size_t> tags_;
};

struct MatchedPair {
  std::size_t treated_index{0};
  std::size_t control_index{0};
  double distance{0.0};
};

struct MatcherOptions {
  /// Relative caliper: covariates a, b are compatible when
  /// |a - b| <= caliper * max(|a|, |b|) + slack.
  double caliper{0.25};
  /// Absolute tolerance added per covariate (lets near-zero covariates
  /// such as loss rates match).
  double absolute_slack{1e-9};
  /// Optional per-covariate overrides of `absolute_slack` (e.g. a loss
  /// rate measured as exactly 0 should still match a 0.01% loss rate).
  /// Empty = use the scalar for every covariate.
  std::vector<double> absolute_slacks;

  [[nodiscard]] double slack_for(std::size_t covariate) const {
    return covariate < absolute_slacks.size() ? absolute_slacks[covariate]
                                              : absolute_slack;
  }
};

/// True when every covariate pair satisfies the caliper.
[[nodiscard]] bool within_caliper(std::span<const double> a, std::span<const double> b,
                                  const MatcherOptions& options);

/// Normalized distance between covariate vectors (mean relative difference).
[[nodiscard]] double covariate_distance(std::span<const double> a,
                                        std::span<const double> b);

class CaliperMatcher {
 public:
  /// Throws InvalidArgument when the caliper or any slack is negative or
  /// not finite (a NaN caliper would make every pair feasible).
  explicit CaliperMatcher(MatcherOptions options = {});

  /// Greedy one-to-one matching: among the caliper-feasible pairs, take
  /// them in ascending (distance, treated, control) order whenever both
  /// endpoints are still free. Pairs come out in the order taken.
  ///
  /// Feasibility and distance are exactly within_caliper() and
  /// covariate_distance(). Each treated unit scans only the band of
  /// controls whose first covariate could satisfy the caliper (a proven
  /// superset of its feasible controls), and a min-heap over each treated
  /// unit's best remaining candidate replays the global sort's order
  /// without materializing it (DESIGN.md, "Matching kernel"). Pass a pool
  /// to spread the band scans across threads; the result does not depend
  /// on it. Throws InvalidArgument when both groups are non-empty and
  /// their covariate dimensions differ or are zero.
  [[nodiscard]] std::vector<MatchedPair> match(const UnitTable& treated,
                                               const UnitTable& control,
                                               core::ThreadPool* pool = nullptr) const;

  [[nodiscard]] const MatcherOptions& options() const { return options_; }

 private:
  MatcherOptions options_;
};

/// Covariate balance diagnostic: standardized mean difference per
/// covariate over the matched pairs (|SMD| < 0.1 is the usual "balanced"
/// rule of thumb).
[[nodiscard]] std::vector<double> standardized_mean_differences(
    const UnitTable& treated, const UnitTable& control,
    std::span<const MatchedPair> pairs);

}  // namespace bblab::causal
