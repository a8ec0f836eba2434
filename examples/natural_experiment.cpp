// Natural-experiment walkthrough: build a custom matched-pair study on
// generated data, inspect the matching quality, and contrast it with a
// naive unmatched comparison — the methodological core of the paper.
//
// The example asks a question the paper does not tabulate directly: do
// BitTorrent-habituated users impose higher *non-BitTorrent* peak demand
// than otherwise similar non-BT users? (A lifestyle confounder check.)
#include <array>
#include <cstdio>
#include <iostream>

#include "analysis/common.h"
#include "causal/experiment.h"
#include "dataset/generator.h"

int main() {
  using namespace bblab;

  dataset::StudyConfig config;
  config.seed = 99;
  config.population_scale = 0.12;
  config.window_days = 1.0;
  std::cout << "generating study dataset...\n";
  const auto ds = dataset::StudyGenerator{market::World::builtin(), config}.generate();
  const auto records = analysis::dasu_records(ds);
  std::cout << "dataset: " << records.size() << " users\n";

  // Outcome: peak demand with BitTorrent excluded. Confounders: capacity,
  // connection quality, and market features.
  const auto outcome = analysis::peak_down_field(false);
  const auto& covariates = analysis::covariates::kPriceExperiment;  // cap, rtt, loss, cost

  const auto bt_users = analysis::filter(
      records, [](const dataset::UserRecord& r) { return r.bt_user; });
  const auto non_bt = analysis::filter(
      records, [](const dataset::UserRecord& r) { return !r.bt_user; });
  const auto treated = analysis::make_units(bt_users, outcome, covariates);
  const auto control = analysis::make_units(non_bt, outcome, covariates);
  std::cout << "pools: " << treated.size() << " BT users vs " << control.size()
            << " non-BT users\n";

  // Naive comparison: fraction of random cross pairs where the BT user's
  // no-BT demand is higher (no matching — confounded by market mix).
  std::size_t naive_wins = 0;
  std::size_t naive_trials = 0;
  for (std::size_t i = 0; i < treated.size() && i < 2000; ++i) {
    for (std::size_t j = 0; j < control.size() && j < 50; ++j) {
      if (treated.outcome(i) == control.outcome(j)) continue;
      ++naive_trials;
      if (treated.outcome(i) > control.outcome(j)) ++naive_wins;
    }
  }
  std::array<char, 160> buf{};
  std::snprintf(buf.data(), buf.size(), "naive (unmatched) comparison: %.1f%% favor BT users\n",
                naive_trials ? 100.0 * static_cast<double>(naive_wins) /
                                   static_cast<double>(naive_trials)
                             : 0.0);
  std::cout << buf.data();

  // The proper natural experiment with 25% calipers.
  const causal::NaturalExperiment experiment{};
  const auto result = experiment.run("BT habit vs non-BT peak demand", treated, control);
  std::cout << "matched experiment:   " << result.to_string() << "\n";

  std::cout << "covariate balance (standardized mean differences after matching):\n";
  const char* names[] = {"capacity", "rtt", "loss", "upgrade cost"};
  for (std::size_t i = 0; i < result.balance.size() && i < 4; ++i) {
    std::snprintf(buf.data(), buf.size(), "  %-12s %+0.3f %s\n", names[i],
                  result.balance[i],
                  std::abs(result.balance[i]) < 0.1 ? "(balanced)" : "(imbalanced!)");
    std::cout << buf.data();
  }

  std::cout << "\ninterpretation: if the matched fraction is near 50%, the naive\n"
               "difference was driven by who adopts BitTorrent (market and\n"
               "capacity mix), not by the habit itself.\n";
  return 0;
}
