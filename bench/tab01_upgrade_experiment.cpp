// Table 1 — within-user natural experiment: does an individual user's
// demand increase after moving to a faster service?
//
// Paper reference points (§3.2):
//   average usage: H holds 66.8% of the time, p = 1.94e-25
//   peak usage:    H holds 70.3% of the time, p = 1.13e-36
#include <iostream>

#include "analysis/report.h"
#include "analysis/tables.h"
#include "bench_common.h"

int main() {
  using namespace bblab;
  const auto& ds = bench::bench_dataset();
  const auto tab = analysis::tab1_upgrade_experiment(ds);
  auto& out = std::cout;

  analysis::print_banner(out,
                         "Table 1 — demand change when switching to a faster service");
  analysis::print_experiment(out, tab.average);
  analysis::print_experiment(out, tab.peak);

  analysis::print_compare(out, "average usage: % H holds", "66.8% (p=1.94e-25)",
                          analysis::pct(tab.average.test.fraction) +
                              " (p=" + analysis::num(tab.average.test.p_value) + ")");
  analysis::print_compare(out, "peak usage: % H holds", "70.3% (p=1.13e-36)",
                          analysis::pct(tab.peak.test.fraction) +
                              " (p=" + analysis::num(tab.peak.test.p_value) + ")");
  analysis::print_compare(
      out, "verdict", "reject H0 for both metrics",
      std::string{tab.average.test.conclusive() ? "reject (avg)" : "CANNOT reject (avg)"} +
          ", " + (tab.peak.test.conclusive() ? "reject (peak)" : "CANNOT reject (peak)"));
  return 0;
}
