// Performance microbenchmarks for the pipeline's hot components:
// water-filling, the fluid simulator, caliper matching, the exact
// binomial test, plan-catalog generation, and choice-model calibration.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <span>

#include "causal/matching.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "market/catalog.h"
#include "market/choice.h"
#include "measurement/pipeline.h"
#include "netsim/fluid.h"
#include "netsim/workload.h"
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

void BM_ParallelPipeline(benchmark::State& state) {
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

  Rng rng{11};
  std::vector<measurement::HouseholdTask> tasks(64);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    auto& t = tasks[i];
    t.link.down = Rate::from_mbps(rng.uniform(2.0, 60.0));
    t.link.up = Rate::from_mbps(rng.uniform(0.5, 6.0));
    t.link.rtt_ms = rng.uniform(15.0, 250.0);
    t.link.loss = rng.uniform(0.0, 0.005);
    t.workload.intensity = rng.uniform(0.5, 1.5);
    t.workload.bt_sessions_per_day = i % 4 == 0 ? 1.0 : 0.0;
    t.bins = 2880;  // one day at 30 s
    t.collector = i % 3 == 0 ? measurement::CollectorKind::kGateway
                             : measurement::CollectorKind::kDasu;
    t.stream_id = i;
  }

  const Rng base{2014};
  core::ThreadPool pool{static_cast<std::size_t>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        measurement::parallel_simulate_households(kit, tasks, base, pool));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tasks.size()));
}
BENCHMARK(BM_ParallelPipeline)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// --- skewed-workload scheduling: work-stealing vs static partition --------
//
// The adversarial case for static contiguous partitioning: a few heavy
// households (prime-time BitTorrent, full-day traces) clustered at the
// front of the task list while the rest are near-idle. A static split
// hands every heavy task to worker 0; the stealing pool over-partitions
// into ~8 blocks per worker and idle workers steal the surplus.
//
// The CI box is single-core, so wall-clock speedup is unmeasurable
// there. Instead each task's serial cost is measured once, and the two
// schedules are simulated over those measured costs: the reported
// counters are deterministic makespans (ms) plus their ratio —
// "virtual_speedup_vs_static" is the acceptance number and is >= 2 at
// 4+ threads. real_time still tracks the live pool run end to end.

std::vector<measurement::HouseholdTask> skewed_tasks() {
  std::vector<measurement::HouseholdTask> tasks(48);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    auto& t = tasks[i];
    const bool heavy = i < 6;  // clustered: worst case for a static split
    t.link.down = Rate::from_mbps(heavy ? 100.0 : 8.0);
    t.link.up = Rate::from_mbps(heavy ? 10.0 : 1.0);
    t.link.rtt_ms = heavy ? 20.0 : 120.0;
    t.link.loss = 0.001;
    t.workload.intensity = heavy ? 3.0 : 0.05;
    t.workload.bt_sessions_per_day = heavy ? 6.0 : 0.0;
    t.bins = heavy ? 2880 : 120;
    t.collector = measurement::CollectorKind::kDasu;
    t.stream_id = 9000 + i;
  }
  return tasks;
}

/// Serial cost of each task in milliseconds, measured once (best of 3).
const std::vector<double>& skewed_task_costs(
    const measurement::PipelineToolkit& kit,
    std::span<const measurement::HouseholdTask> tasks) {
  static const std::vector<double> costs = [&] {
    const Rng base{2014};
    core::ThreadPool serial{1};
    std::vector<double> out(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(measurement::parallel_simulate_households(
            kit, tasks.subspan(i, 1), base, serial));
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration<double, std::milli>{t1 - t0}.count());
      }
      out[i] = best;
    }
    return out;
  }();
  return costs;
}

/// Makespan of a static contiguous partition: ceil(n/workers) tasks per
/// worker, no stealing — the pre-work-stealing schedule.
double static_makespan(std::span<const double> costs, std::size_t workers) {
  const std::size_t n = costs.size();
  const std::size_t chunk = (n + workers - 1) / workers;
  double worst = 0.0;
  for (std::size_t w = 0; w * chunk < n; ++w) {
    double sum = 0.0;
    for (std::size_t i = w * chunk; i < std::min(n, (w + 1) * chunk); ++i) {
      sum += costs[i];
    }
    worst = std::max(worst, sum);
  }
  return worst;
}

/// Makespan of the stealing schedule: the same over-partitioning as
/// core::parallel_for (kBlocksPerWorker = 8), blocks list-scheduled
/// greedily — a free worker always takes the next unclaimed block, which
/// is exactly what deque + steal converges to.
double steal_makespan(std::span<const double> costs, std::size_t workers) {
  const std::size_t n = costs.size();
  const std::size_t blocks = workers == 1 ? 1 : std::min(n, workers * 8);
  const std::size_t chunk = (n + blocks - 1) / blocks;
  std::vector<double> finish(workers, 0.0);
  for (std::size_t b = 0; b * chunk < n; ++b) {
    double sum = 0.0;
    for (std::size_t i = b * chunk; i < std::min(n, (b + 1) * chunk); ++i) {
      sum += costs[i];
    }
    *std::min_element(finish.begin(), finish.end()) += sum;
  }
  return *std::max_element(finish.begin(), finish.end());
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

  const auto tasks = skewed_tasks();
  const auto& costs = skewed_task_costs(kit, tasks);
  const auto workers = static_cast<std::size_t>(state.range(0));

  const Rng base{2014};
  core::ThreadPool pool{workers};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        measurement::parallel_simulate_households(kit, tasks, base, pool));
  }
  const double stat = static_makespan(costs, workers);
  const double steal = steal_makespan(costs, workers);
  state.counters["static_makespan_ms"] = stat;
  state.counters["steal_makespan_ms"] = steal;
  state.counters["virtual_speedup_vs_static"] = stat / steal;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tasks.size()));
}
BENCHMARK(BM_SkewedPipelineSchedule)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

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

}  // namespace

BENCHMARK_MAIN();
