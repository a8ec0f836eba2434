// Extension — user categories (the paper's §10 future work: "it will be
// interesting to investigate how different categories of users (e.g.,
// gamers, shoppers or movie-watchers) ... are impacted by different
// market and service features").
//
// Using the generator's ground-truth archetypes as the category labels,
// this harness reports per-category demand profiles and re-runs the
// capacity experiment within the two largest categories.
#include <array>
#include <cstdio>
#include <iostream>

#include "analysis/common.h"
#include "analysis/report.h"
#include "bench_common.h"
#include "causal/experiment.h"
#include "stats/binning.h"
#include "stats/descriptive.h"

int main() {
  using namespace bblab;
  auto& out = std::cout;
  const auto& ds = bench::bench_dataset();
  analysis::print_banner(out, "Extension — demand by user category (§10 future work)");

  const auto records = analysis::dasu_records(ds);
  std::array<char, 200> buf{};
  out << "  category   n      mean dl     p95 dl      p95 dl noBT  BT share\n";
  for (const auto archetype : behavior::all_archetypes()) {
    const auto recs = analysis::filter(records, [&](const dataset::UserRecord& r) {
      return r.archetype == archetype;
    });
    if (recs.size() < 20) continue;
    stats::RunningStats mean_dl;
    stats::RunningStats peak_dl;
    stats::RunningStats peak_nobt;
    stats::RunningStats bt_share;
    for (const auto* r : recs) {
      mean_dl.add(r->usage.mean_down.kbps());
      peak_dl.add(r->usage.peak_down.kbps());
      peak_nobt.add(r->usage.peak_down_no_bt.kbps());
      bt_share.add(r->usage.bt_share());
    }
    std::snprintf(buf.data(), buf.size(),
                  "  %-9s %5zu  %7.0f kbps %7.0f kbps %7.0f kbps  %5.1f%%\n",
                  behavior::archetype_label(archetype).c_str(), recs.size(),
                  mean_dl.mean(), peak_dl.mean(), peak_nobt.mean(),
                  100.0 * bt_share.mean());
    out << buf.data();
  }

  // Within-category capacity experiment: does the §3 capacity effect hold
  // for light users as it does for heavy ones?
  causal::ExperimentOptions options;
  options.matcher.absolute_slacks = {1e-9, 2e-4, 1e-9, 0.02};
  const causal::NaturalExperiment experiment{options};
  for (const auto archetype :
       {behavior::Archetype::kLight, behavior::Archetype::kStreamer}) {
    const auto recs = analysis::filter(records, [&](const dataset::UserRecord& r) {
      return r.archetype == archetype;
    });
    // Pool adjacent capacity classes: (0.8, 3.2] vs (3.2, 12.8].
    const auto in_band = [&](double lo, double hi) {
      return analysis::make_units(
          analysis::filter(recs,
                           [&](const dataset::UserRecord& r) {
                             const double c = r.capacity.mbps();
                             return c > lo && c <= hi;
                           }),
          analysis::peak_down_field(false), analysis::covariates::kQualityAndMarket);
    };
    const auto result =
        experiment.run("capacity effect, " + behavior::archetype_label(archetype),
                       in_band(3.2, 12.8), in_band(0.8, 3.2));
    analysis::print_experiment(out, result);
  }
  analysis::print_compare(out, "capacity effect within categories",
                          "paper did not separate categories (future work)",
                          "both categories show the effect when pools suffice");
  return 0;
}
