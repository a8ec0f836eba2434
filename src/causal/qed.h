// Quasi-experimental design (QED) estimation.
//
// The paper (§8) contrasts its natural experiments with the QED approach
// of Krishnan & Sitaraman (IMC'12) and Oktay et al.: match treated and
// untreated units, then score the *net outcome* — the normalized excess
// of pairs where the treated unit "wins" — and attach a sign-test
// significance plus an effect-size estimate. We implement QED as an
// alternative estimator over the same caliper-matched pairs, so the two
// designs can be compared head-to-head on identical data (see
// bench/abl_estimators).
#pragma once

#include <string>

#include "causal/matching.h"
#include "core/rng.h"

namespace bblab::causal {

struct QedOptions {
  MatcherOptions matcher{};
  double alpha{0.05};
  /// Bootstrap resamples for the treatment-effect confidence interval.
  std::size_t bootstrap_resamples{500};
  /// Seed for the bootstrap (QED inference is deterministic given this).
  std::uint64_t seed{2014};
};

struct QedResult {
  std::string name;
  std::size_t pairs{0};

  /// Net outcome score in [-1, 1]: (wins - losses) / pairs.
  double net_score{0.0};
  /// Two-sided sign-test p-value against net score 0.
  double sign_p_value{1.0};
  bool significant{false};

  /// Average treatment effect: mean of (treated - control) outcome
  /// differences over matched pairs, with a bootstrap percentile CI.
  double ate{0.0};
  double ate_ci_lo{0.0};
  double ate_ci_hi{0.0};
  /// Median pairwise difference (robust counterpart of the ATE).
  double median_effect{0.0};

  [[nodiscard]] std::string to_string() const;
};

class QuasiExperiment {
 public:
  explicit QuasiExperiment(QedOptions options = {}) : options_{options} {}

  /// Match `treated` to `control` with calipers and estimate the
  /// treatment effect QED-style.
  [[nodiscard]] QedResult run(const std::string& name, const UnitTable& treated,
                              const UnitTable& control) const;

  [[nodiscard]] const QedOptions& options() const { return options_; }

 private:
  QedOptions options_;
};

/// Two-sided sign-test p-value: P(|Wins - n/2| >= |wins - n/2|) under a
/// fair coin. Exposed for unit testing.
[[nodiscard]] double sign_test_p(std::uint64_t wins, std::uint64_t trials);

}  // namespace bblab::causal
