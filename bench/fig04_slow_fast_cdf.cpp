// Figure 4 — CDFs of mean and peak download usage for individual users on
// their "slow" and "fast" networks (before/after a service switch).
//
// Paper reference points (§3.2):
//   median average usage doubles: 95 kbps -> 189 kbps
//   median peak usage more than triples: 192 kbps -> 634 kbps
#include <iostream>

#include "analysis/figures.h"
#include "analysis/report.h"
#include "bench_common.h"

int main() {
  using namespace bblab;
  const auto& ds = bench::bench_dataset();
  const auto fig = analysis::fig4_slow_fast_cdfs(ds);
  auto& out = std::cout;

  analysis::print_banner(out, "Figure 4 — usage on slow vs fast networks (no BT)");
  analysis::print_ecdf(out, "(a) mean usage, slow [kbps]", fig.mean_slow);
  analysis::print_ecdf(out, "(a) mean usage, fast [kbps]", fig.mean_fast);
  analysis::print_ecdf(out, "(b) p95 usage, slow [kbps]", fig.peak_slow);
  analysis::print_ecdf(out, "(b) p95 usage, fast [kbps]", fig.peak_fast);

  const double mean_slow_med = fig.mean_slow.inverse(0.5);
  const double mean_fast_med = fig.mean_fast.inverse(0.5);
  const double peak_slow_med = fig.peak_slow.inverse(0.5);
  const double peak_fast_med = fig.peak_fast.inverse(0.5);

  analysis::print_compare(out, "median mean usage slow -> fast",
                          "95 -> 189 kbps (~2.0x)",
                          analysis::num(mean_slow_med) + " -> " +
                              analysis::num(mean_fast_med) + " kbps (" +
                              analysis::num(mean_fast_med / mean_slow_med) + "x)");
  analysis::print_compare(out, "median peak usage slow -> fast",
                          "192 -> 634 kbps (~3.3x)",
                          analysis::num(peak_slow_med) + " -> " +
                              analysis::num(peak_fast_med) + " kbps (" +
                              analysis::num(peak_fast_med / peak_slow_med) + "x)");
  return 0;
}
