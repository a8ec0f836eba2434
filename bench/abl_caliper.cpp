// Ablation — caliper sensitivity of the price natural experiment.
//
// §3.2 of the paper notes the trade-off: "a tighter caliper will yield a
// potentially more accurate comparison, but will also reduce the number
// of comparisons". This harness sweeps the caliper for the Table 3
// high-price comparison and reports matched-pair counts, detected effect,
// and covariate balance.
#include <array>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "analysis/common.h"
#include "analysis/report.h"
#include "bench_common.h"
#include "causal/experiment.h"

int main() {
  using namespace bblab;
  auto& out = std::cout;
  const auto& ds = bench::bench_dataset();
  analysis::print_banner(out, "Ablation — caliper width vs matching quality (Table 3 design)");

  const auto records = analysis::dasu_records(ds);
  const auto bands = analysis::partition(records, stats::EdgeBins{{0.0, 25.0, 60.0, 1e12}},
                                         analysis::Field::kAccessPriceUsd);
  const auto band = [&](std::size_t i) {
    return analysis::make_units(bands[i], analysis::peak_down_field(false),
                                analysis::covariates::kPriceExperiment);
  };
  const auto cheap = band(0);
  const auto expensive = band(2);

  out << "  caliper   pairs   %H holds   p-value     worst |SMD|\n";
  std::array<char, 160> buf{};
  for (const double caliper : {0.05, 0.10, 0.25, 0.50, 1.00}) {
    causal::ExperimentOptions options;
    options.matcher.caliper = caliper;
    options.matcher.absolute_slacks = {1e-9, 1e-9, 2e-4, 0.02};
    const causal::NaturalExperiment experiment{options};
    const auto result = experiment.run("caliper sweep", expensive, cheap);
    double worst = 0.0;
    for (const double smd : result.balance) worst = std::max(worst, std::fabs(smd));
    std::snprintf(buf.data(), buf.size(), "  %5.2f   %6zu    %5.1f%%    %-10.3g  %.3f\n",
                  caliper, result.pairs, 100.0 * result.test.fraction,
                  result.test.p_value, worst);
    out << buf.data();
  }
  out << "  expectation: wider calipers buy pairs at the cost of balance;\n"
         "  beyond ~0.5 the detected effect drifts as confounding leaks in.\n";
  return 0;
}
