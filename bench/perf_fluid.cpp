// Microbenchmarks for the fluid link engine, pitting the zero-allocation
// incremental path against the recompute-everything reference engine
// (FluidLinkSimulator::run_reference) in the same binary, so speedups are
// measured apples-to-apples within one build. Workloads cover the shapes
// that dominate pipeline time: a lone flow, a small saturated mix, a
// BitTorrent-heavy 64-flow swarm, and a generated user-day.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "netsim/fluid.h"
#include "netsim/workload.h"

namespace {

using namespace bblab;

constexpr std::size_t kBins = 2880;  // one day at 30 s
constexpr double kBinWidth = 30.0;

netsim::AccessLink cable_link() {
  netsim::AccessLink link;
  link.down = Rate::from_mbps(16);
  link.up = Rate::from_mbps(2);
  link.rtt_ms = 40;
  link.loss = 0.001;
  return link;
}

/// Deterministic flow soup: `n` flows spread over the day, `bt_share` of
/// them BitTorrent (volume-bound swarm traffic), the rest a web/video/bulk
/// mix. Sorted by start, as the engine requires.
std::vector<netsim::Flow> flow_soup(std::size_t n, double bt_share,
                                    std::uint64_t seed) {
  Rng rng{seed};
  std::vector<netsim::Flow> flows;
  flows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    netsim::Flow f;
    f.start = rng.uniform(0.0, kBins * kBinWidth * 0.9);
    if (rng.uniform() < bt_share) {
      f.app = netsim::AppKind::kBitTorrent;
      f.direction = rng.bernoulli(0.4) ? netsim::Direction::kUp
                                       : netsim::Direction::kDown;
      f.volume_bytes = rng.uniform(5e7, 5e8);
    } else {
      switch (rng.index(3)) {
        case 0:
          f.app = netsim::AppKind::kWeb;
          f.volume_bytes = rng.uniform(1e5, 5e6);
          break;
        case 1:
          f.app = netsim::AppKind::kVideo;
          f.duration_s = rng.uniform(300.0, 5400.0);
          f.rate_cap = Rate::from_kbps(rng.uniform(1000.0, 5000.0));
          break;
        default:
          f.app = netsim::AppKind::kBulk;
          f.volume_bytes = rng.uniform(1e7, 2e8);
          break;
      }
      f.direction = netsim::Direction::kDown;
    }
    flows.push_back(f);
  }
  std::sort(flows.begin(), flows.end(),
            [](const netsim::Flow& a, const netsim::Flow& b) {
              return a.start < b.start;
            });
  return flows;
}

/// range(0) selects the engine: 0 = incremental (workspace reused across
/// iterations, the steady-state pipeline configuration), 1 = reference.
void run_engine_bench(benchmark::State& state,
                      const std::vector<netsim::Flow>& flows) {
  const bool reference = state.range(0) == 1;
  const netsim::FluidLinkSimulator sim{cable_link()};
  netsim::FluidWorkspace workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reference ? sim.run_reference(flows, 0.0, kBins, kBinWidth)
                  : sim.run(flows, 0.0, kBins, kBinWidth, workspace));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(flows.size()));
  state.SetLabel(reference ? "reference" : "incremental");
}

void BM_FluidSingleFlow(benchmark::State& state) {
  // One all-day video session: the no-contention fast path.
  netsim::Flow f;
  f.app = netsim::AppKind::kVideo;
  f.direction = netsim::Direction::kDown;
  f.start = 0.0;
  f.duration_s = kBins * kBinWidth;
  f.rate_cap = Rate::from_kbps(4000.0);
  run_engine_bench(state, {f});
}
BENCHMARK(BM_FluidSingleFlow)->Arg(0)->Arg(1);

void BM_FluidSaturated8(benchmark::State& state) {
  // Eight bulk-heavy flows: enough contention that every completion
  // reshuffles the water-fill.
  run_engine_bench(state, flow_soup(8, 0.25, 21));
}
BENCHMARK(BM_FluidSaturated8)->Arg(0)->Arg(1);

void BM_FluidBitTorrent64(benchmark::State& state) {
  // The acceptance workload: 64 flows, half of them BitTorrent swarms
  // keeping the link saturated all day. The reference engine pays a sort
  // plus three allocations plus a Mathis-model evaluation per flow-step.
  run_engine_bench(state, flow_soup(64, 0.5, 42));
}
BENCHMARK(BM_FluidBitTorrent64)->Arg(0)->Arg(1);

void BM_FluidGeneratedUserDay(benchmark::State& state) {
  // Realistic diurnal user-day from the workload generator, the shape
  // perf_pipeline spends its time on.
  const SimClock clock{2011};
  const netsim::DiurnalModel diurnal{netsim::DiurnalParams{}, clock};
  const netsim::WorkloadGenerator gen{diurnal};
  netsim::WorkloadParams params;
  params.intensity = 1.0;
  params.bt_sessions_per_day = 1.0;
  Rng rng{7};
  const auto flows = gen.generate(params, cable_link(), 0.0, kDay, rng);
  run_engine_bench(state, flows);
}
BENCHMARK(BM_FluidGeneratedUserDay)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
