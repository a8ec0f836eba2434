// Natural experiments.
//
// The paper's inference recipe (§2.3): match treated and control users on
// confounders, score each matched pair as a Bernoulli trial ("does the
// treated user's demand exceed the control user's?"), and evaluate the
// fraction of successes with a one-tailed binomial test (alpha = 0.05)
// plus the 2% practical-importance margin. NaturalExperiment wraps that
// whole pipeline; PairedExperiment is the within-user variant used for
// service upgrades (Table 1), where each user is their own control.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "causal/matching.h"
#include "stats/binomial.h"

namespace bblab::causal {

struct ExperimentResult {
  std::string name;
  std::size_t treated_pool{0};
  std::size_t control_pool{0};
  std::size_t pairs{0};
  stats::BinomialTestResult test;
  /// Post-matching covariate balance (standardized mean differences).
  std::vector<double> balance;

  [[nodiscard]] std::string to_string() const;
};

struct ExperimentOptions {
  MatcherOptions matcher{};
  double p0{0.5};
  double alpha{0.05};
  double practical_margin{0.02};
  /// Minimum matched pairs before the result is considered evaluable.
  std::size_t min_pairs{10};
};

class NaturalExperiment {
 public:
  explicit NaturalExperiment(ExperimentOptions options = {}) : options_{options} {}

  /// Hypothesis H: treated outcome > control outcome within matched pairs.
  /// Pairs with exactly equal outcomes are dropped from the sign test.
  [[nodiscard]] ExperimentResult run(const std::string& name,
                                     const UnitTable& treated,
                                     const UnitTable& control) const;

  [[nodiscard]] const ExperimentOptions& options() const { return options_; }

 private:
  ExperimentOptions options_;
};

/// Within-subject design: each element is (control outcome, treated
/// outcome) for the same user; H: treated > control. Ties are dropped.
[[nodiscard]] ExperimentResult paired_experiment(
    const std::string& name, std::span<const std::pair<double, double>> outcomes,
    const ExperimentOptions& options = {});

}  // namespace bblab::causal
