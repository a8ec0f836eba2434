#include "causal/experiment.h"

#include <array>
#include <cstdio>

namespace bblab::causal {

std::string ExperimentResult::to_string() const {
  std::array<char, 256> buf{};
  std::snprintf(buf.data(), buf.size(),
                "%s: %zu pairs (pools %zu/%zu), H holds %.1f%%, p=%.3g%s",
                name.c_str(), pairs, treated_pool, control_pool,
                test.fraction * 100.0, test.p_value,
                test.conclusive() ? "" : " [not conclusive]");
  return std::string{buf.data()};
}

ExperimentResult NaturalExperiment::run(const std::string& name,
                                        const UnitTable& treated,
                                        const UnitTable& control) const {
  ExperimentResult result;
  result.name = name;
  result.treated_pool = treated.size();
  result.control_pool = control.size();

  const CaliperMatcher matcher{options_.matcher};
  const auto pairs = matcher.match(treated, control);
  result.pairs = pairs.size();
  result.balance = standardized_mean_differences(treated, control, pairs);

  std::uint64_t successes = 0;
  std::uint64_t trials = 0;
  for (const auto& p : pairs) {
    const double t = treated.outcome(p.treated_index);
    const double c = control.outcome(p.control_index);
    if (t == c) continue;  // a tie carries no sign: dropped, not counted
    ++trials;
    if (t > c) ++successes;
  }
  result.test = stats::binomial_test(successes, trials, options_.p0, options_.alpha,
                                     options_.practical_margin);
  if (result.pairs < options_.min_pairs) {
    result.test.significant = false;  // too few pairs to conclude anything
  }
  return result;
}

ExperimentResult paired_experiment(const std::string& name,
                                   std::span<const std::pair<double, double>> outcomes,
                                   const ExperimentOptions& options) {
  ExperimentResult result;
  result.name = name;
  result.treated_pool = outcomes.size();
  result.control_pool = outcomes.size();
  result.pairs = outcomes.size();

  std::uint64_t successes = 0;
  std::uint64_t trials = 0;
  for (const auto& [control, treated] : outcomes) {
    if (treated == control) continue;  // ties are dropped
    ++trials;
    if (treated > control) ++successes;
  }
  result.test = stats::binomial_test(successes, trials, options.p0, options.alpha,
                                     options.practical_margin);
  if (result.pairs < options.min_pairs) result.test.significant = false;
  return result;
}

}  // namespace bblab::causal
