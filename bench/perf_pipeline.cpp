// Performance microbenchmarks for the pipeline's hot components:
// water-filling, the fluid simulator, caliper matching, the exact
// binomial test, plan-catalog generation, choice-model calibration, and
// the per-country market build.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <span>

#include "causal/matching.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "dataset/generator.h"
#include "market/catalog.h"
#include "market/choice.h"
#include "measurement/pipeline.h"
#include "netsim/fluid.h"
#include "netsim/workload.h"
#include "skewed_schedule.h"
#include "stats/binomial.h"

namespace {

using namespace bblab;

void BM_WaterFill(benchmark::State& state) {
  Rng rng{1};
  std::vector<double> caps(static_cast<std::size_t>(state.range(0)));
  for (auto& c : caps) c = rng.uniform(1e5, 1e8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(netsim::water_fill(5e7, caps));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WaterFill)->Arg(4)->Arg(16)->Arg(64);

void BM_FluidSimulatorUserDay(benchmark::State& state) {
  netsim::AccessLink link;
  link.down = Rate::from_mbps(16);
  link.up = Rate::from_mbps(2);
  link.rtt_ms = 40;
  link.loss = 0.001;
  const SimClock clock{2011};
  const netsim::DiurnalModel diurnal{netsim::DiurnalParams{}, clock};
  const netsim::WorkloadGenerator gen{diurnal};
  netsim::WorkloadParams params;
  params.intensity = 1.0;
  params.bt_sessions_per_day = 1.0;
  Rng rng{7};
  const auto flows = gen.generate(params, link, 0.0, kDay, rng);
  const netsim::FluidLinkSimulator sim{link};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(flows, 0.0, 2880, 30.0));
  }
  state.SetItemsProcessed(state.iterations() * 2880);
}
BENCHMARK(BM_FluidSimulatorUserDay);

void BM_WorkloadGeneration(benchmark::State& state) {
  netsim::AccessLink link;
  link.down = Rate::from_mbps(16);
  link.up = Rate::from_mbps(2);
  link.rtt_ms = 40;
  link.loss = 0.001;
  const SimClock clock{2011};
  const netsim::DiurnalModel diurnal{netsim::DiurnalParams{}, clock};
  const netsim::WorkloadGenerator gen{diurnal};
  netsim::WorkloadParams params;
  Rng rng{7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate(params, link, 0.0, kDay, rng));
  }
}
BENCHMARK(BM_WorkloadGeneration);

// Units shaped like the Tab. 2 quality-and-market design: rtt and loss
// per user, then access price and upgrade cost, which are market-level
// and so take only as many values as there are markets. `dim` keeps the
// first 2..4 of these covariates.
causal::UnitTable matching_units(std::size_t n, std::size_t dim, std::uint64_t salt) {
  constexpr std::size_t kMarkets = 15;
  Rng rng{salt};
  causal::UnitTable units{dim};
  units.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double market = static_cast<double>(rng.index(kMarkets));
    const std::array<double, 4> row{rng.lognormal(3.8, 0.7),
                                    rng.bernoulli(0.3) ? 0.0 : rng.lognormal(-7.0, 1.0),
                                    10.0 + 6.0 * market, 0.2 + 0.15 * market};
    units.push_back(rng.uniform(), std::span<const double>{row.data(), dim}, i);
  }
  return units;
}

causal::MatcherOptions matching_options() {
  causal::MatcherOptions options;
  options.absolute_slacks = {1e-9, 2e-4, 1e-9, 0.02};
  return options;
}

void BM_CaliperMatching(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto treated = matching_units(n, dim, 3);
  const auto control = matching_units(n, dim, 4);
  const causal::CaliperMatcher matcher{matching_options()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.match(treated, control));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CaliperMatching)
    ->Args({100, 4})
    ->Args({400, 4})
    ->Args({1600, 2})
    ->Args({1600, 3})
    ->Args({1600, 4});

void BM_CaliperMatchingPooled(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto treated = matching_units(n, 4, 3);
  const auto control = matching_units(n, 4, 4);
  const causal::CaliperMatcher matcher{matching_options()};
  core::ThreadPool pool{static_cast<std::size_t>(state.range(1))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.match(treated, control, &pool));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CaliperMatchingPooled)
    ->Args({1600, 1})
    ->Args({1600, 4})
    ->Args({1600, 8})
    ->UseRealTime();

// --- skewed-workload scheduling: work-stealing vs static partition --------
//
// The model lives in skewed_schedule.h; `skewed_schedule_test` gates its
// ratio ("virtual_speedup_vs_static" >= 2 at 4+ workers). The timed loop
// is the makespan model itself; the counters are the result.

/// Serial task costs, measured once per process for every Arg.
const std::vector<double>& skewed_task_costs(
    const measurement::PipelineToolkit& kit,
    std::span<const measurement::HouseholdTask> tasks) {
  static const std::vector<double> costs = bench::measure_task_costs(kit, tasks);
  return costs;
}

void BM_SkewedPipelineSchedule(benchmark::State& state) {
  const SimClock clock{2011};
  const netsim::DiurnalModel diurnal{netsim::DiurnalParams{}, clock};
  const netsim::WorkloadGenerator workload{diurnal};
  const measurement::DasuCollector dasu{measurement::DasuCollectorParams{},
                                        diurnal};
  const measurement::GatewayCollector gateway{};
  measurement::PipelineToolkit kit;
  kit.workload = &workload;
  kit.dasu = &dasu;
  kit.gateway = &gateway;

  const auto tasks = bench::skewed_tasks();
  const auto& costs = skewed_task_costs(kit, tasks);
  const auto workers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::steal_makespan(costs, workers));
  }
  const double stat = bench::static_makespan(costs, workers);
  const double steal = bench::steal_makespan(costs, workers);
  state.counters["static_makespan_ms"] = stat;
  state.counters["steal_makespan_ms"] = steal;
  state.counters["virtual_speedup_vs_static"] = stat / steal;
}
BENCHMARK(BM_SkewedPipelineSchedule)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_BinomialTestExact(benchmark::State& state) {
  const auto trials = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stats::binomial_p_greater(trials * 53 / 100, trials));
  }
}
BENCHMARK(BM_BinomialTestExact)->Arg(100)->Arg(10000)->Arg(1000000);

void BM_CatalogGeneration(benchmark::State& state) {
  const auto world = market::World::builtin();
  Rng rng{5};
  for (auto _ : state) {
    for (const auto& country : world.countries()) {
      benchmark::DoNotOptimize(market::PlanCatalog::generate(country, rng));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(world.size()));
}
BENCHMARK(BM_CatalogGeneration);

// One market's willingness-to-pay calibration over 256 probe households,
// as StudyGenerator::build_markets runs it per country.
void BM_ChoiceCalibration(benchmark::State& state) {
  const auto& country = market::World::builtin().at("US");
  Rng rng{5};
  const auto catalog = market::PlanCatalog::generate(country, rng);
  std::vector<market::Household> probes;
  for (int i = 0; i < 256; ++i) probes.push_back(market::sample_household(country, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(market::ChoiceModel::calibrated(country, catalog, probes));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(probes.size()));
}
BENCHMARK(BM_ChoiceCalibration);

// Every builtin market (catalog, probes, calibration, price fit), one
// country per task on a pool of `range(0)` workers.
void BM_BuildMarkets(benchmark::State& state) {
  const dataset::StudyGenerator generator{market::World::builtin(), dataset::StudyConfig{}};
  core::ThreadPool pool{static_cast<std::size_t>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.build_markets(pool));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(market::World::builtin().size()));
}
BENCHMARK(BM_BuildMarkets)->Arg(1)->Arg(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
