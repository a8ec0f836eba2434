// Ablation — estimator comparison on the §5 price design:
//   1. the paper's natural experiment (per-covariate calipers + one-tailed
//      binomial decision rule),
//   2. QED (same matching, net-outcome score + sign test + effect size),
//   3. propensity-score matching (logistic score, nearest-score pairs)
//      scored with the same binomial rule.
//
// The paper (§8) chose natural experiments over QED, considering its
// groups "sufficiently similar to random assignment"; this harness shows
// what each estimator concludes on identical data.
#include <iostream>

#include "analysis/common.h"
#include "analysis/report.h"
#include "bench_common.h"
#include "causal/experiment.h"
#include "causal/propensity.h"
#include "causal/qed.h"
#include "stats/binomial.h"

int main() {
  using namespace bblab;
  auto& out = std::cout;
  const auto& ds = bench::bench_dataset();
  analysis::print_banner(out, "Ablation — estimators on the price-of-access design");

  const auto records = analysis::dasu_records(ds);
  const auto bands = analysis::partition(records, stats::EdgeBins{{0.0, 25.0, 60.0, 1e12}},
                                         analysis::Field::kAccessPriceUsd);
  const auto band = [&](std::size_t i) {
    return analysis::make_units(bands[i], analysis::mean_down_field(false),
                                analysis::covariates::kCapacityQuality);
  };
  const auto cheap = band(0);
  const auto expensive = band(2);
  out << "  pools: " << expensive.size() << " expensive-market users vs "
      << cheap.size() << " cheap-market users\n";

  // 1. Natural experiment (the paper's design).
  causal::ExperimentOptions ne_options;
  ne_options.matcher.absolute_slacks = {1e-9, 1e-9, 2e-4};
  const auto ne = causal::NaturalExperiment{ne_options}.run("natural experiment",
                                                            expensive, cheap);
  analysis::print_experiment(out, ne);

  // 2. QED over the same matched design.
  causal::QedOptions qed_options;
  qed_options.matcher = ne_options.matcher;
  const auto qed = causal::QuasiExperiment{qed_options}.run("QED", expensive, cheap);
  out << "  " << qed.to_string() << "\n";

  // 3. Propensity-score matching + binomial scoring.
  const auto prop = causal::propensity_match(expensive, cheap, {});
  std::uint64_t wins = 0;
  std::uint64_t trials = 0;
  for (const auto& p : prop.pairs) {
    const double t = expensive.outcome(p.treated_index);
    const double c = cheap.outcome(p.control_index);
    if (t == c) continue;
    ++trials;
    if (t > c) ++wins;
  }
  const auto prop_test = stats::binomial_test(wins, trials);
  out << "  propensity: " << prop.pairs.size() << " pairs, "
      << prop_test.to_string() << "\n";

  analysis::print_compare(
      out, "agreement",
      "all three find higher demand in expensive markets",
      std::string{ne.test.fraction > 0.5 ? "NE+" : "NE-"} + " " +
          (qed.net_score > 0 ? "QED+" : "QED-") + " " +
          (prop_test.fraction > 0.5 ? "PSM+" : "PSM-"));
  analysis::print_compare(out, "pairs (NE vs PSM)",
                          "propensity buys sample size, calipers buy balance",
                          std::to_string(ne.pairs) + " vs " +
                              std::to_string(prop.pairs.size()));
  return 0;
}
