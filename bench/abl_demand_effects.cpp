// Ablation — which planted effect does each experiment actually detect?
//
// DESIGN.md installs three causal mechanisms in the demand model
// (capacity saturation, unmet-need pressure, quality suppression). This
// harness disables them one at a time, re-runs the headline experiments,
// and reports the detected effect sizes. Expectations:
//   * no capacity effect  -> Table 1 (within-user upgrades) collapses
//   * no pressure effect  -> Table 3 (price) collapses
//   * no quality effect   -> Table 7 (latency) weakens toward the purely
//                            mechanical TCP penalty
//   * full placebo        -> everything near 50%
#include <array>
#include <cstdio>
#include <iostream>

#include "analysis/report.h"
#include "analysis/tables.h"
#include "dataset/generator.h"

namespace {

struct Variant {
  const char* name;
  bool no_capacity;
  bool no_pressure;
  bool no_quality;
  bool placebo;
};

}  // namespace

int main() {
  using namespace bblab;
  auto& out = std::cout;
  analysis::print_banner(out, "Ablation — demand-model effects vs experiment outcomes");

  const Variant variants[] = {
      {"full model", false, false, false, false},
      {"no capacity effect", true, false, false, false},
      {"no pressure effect", false, true, false, false},
      {"no quality effect", false, false, true, false},
      {"placebo (all off)", false, false, false, true},
  };

  out << "  variant               tab1 peak   tab3 price (mid) tab7 avg-latency\n";
  std::array<char, 200> buf{};
  for (const auto& v : variants) {
    dataset::StudyConfig config;
    config.seed = 2014;
    config.population_scale = 0.15;
    config.window_days = 1.0;
    config.fcc_users = 900;
    config.fcc_window_days = 3.0;
    config.first_year = 2011;
    config.last_year = 2012;
    config.upgrade_follow_share = 0.35;
    config.disable_capacity_effect = v.no_capacity;
    config.disable_pressure_effect = v.no_pressure;
    config.disable_quality_effect = v.no_quality;
    config.placebo = v.placebo;
    const auto ds =
        dataset::StudyGenerator{market::World::builtin(), config}.generate();

    const auto tab1 = analysis::tab1_upgrade_experiment(ds);
    const auto tab3 = analysis::tab3_price_experiment(ds);
    const auto tab7 = analysis::tab7_latency_experiment(ds);
    double t7 = 0.0;
    int t7n = 0;
    for (const auto& row : tab7.rows) {
      if (row.result.test.trials < 10) continue;
      t7 += row.result.test.fraction;
      ++t7n;
    }
    // Mid-bracket of Table 3: largest pools, most stable ablation readout.
    std::snprintf(buf.data(), buf.size(), "  %-20s  %5.1f%%      %5.1f%%           %5.1f%%\n",
                  v.name, 100.0 * tab1.peak.test.fraction,
                  100.0 * tab3.mid.test.fraction,
                  t7n > 0 ? 100.0 * t7 / t7n : -1.0);
    out << buf.data();
  }
  out << "  (fractions near 50% mean the pipeline correctly finds nothing)\n";
  return 0;
}
