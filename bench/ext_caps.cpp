// Extension — the usage-cap natural experiment (Chetty et al., CHI'12,
// cited by the paper): do monthly data caps suppress demand on otherwise
// similar connections?
//
// Expectation from the planted behavior (behavior/caps.h): capped users'
// heavy consumption throttles as their appetite approaches the cap, so
// uncapped users should impose higher average demand on matched lines —
// the effect concentrated among heavy-appetite users.
#include <iostream>

#include "analysis/common.h"
#include "analysis/report.h"
#include "bench_common.h"
#include "causal/experiment.h"

int main() {
  using namespace bblab;
  auto& out = std::cout;
  const auto& ds = bench::bench_dataset();
  analysis::print_banner(out, "Extension — usage caps vs demand");

  const auto records = analysis::dasu_records(ds);
  const auto capped = analysis::filter(
      records, [](const dataset::UserRecord& r) { return r.capped(); });
  const auto uncapped = analysis::filter(
      records, [](const dataset::UserRecord& r) { return !r.capped(); });
  out << "  population: " << capped.size() << " capped, " << uncapped.size()
      << " uncapped users\n";

  const auto& cov = analysis::covariates::kPriceExperiment;  // capacity, rtt, loss, cost
  causal::ExperimentOptions options;
  options.matcher.absolute_slacks = {1e-9, 1e-9, 2e-4, 0.02};
  const causal::NaturalExperiment experiment{options};

  // H: the uncapped (treated) user imposes higher average demand.
  for (const auto& [label, with_bt] :
       {std::pair{"average demand w/ BT", true}, std::pair{"average demand no BT", false}}) {
    const auto outcome = analysis::mean_down_field(with_bt);
    const auto treated = analysis::make_units(uncapped, outcome, cov);
    const auto control = analysis::make_units(capped, outcome, cov);
    const auto result = experiment.run(label, treated, control);
    analysis::print_experiment(out, result);
  }

  analysis::print_compare(out, "expected direction",
                          "uncapped users use more (Chetty et al.)",
                          "see rows above: H-holds fraction > 50% confirms");
  return 0;
}
