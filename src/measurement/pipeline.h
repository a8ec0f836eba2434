// Per-household simulation pipeline.
//
// The paper's datasets are tens of thousands of independent
// household-windows, each run through the same workload -> fluid-link ->
// collector chain. simulate_household runs that chain for one window,
// drawing only from the RNG it is handed; dataset::StudyGenerator's
// shards fan households out over a core::ThreadPool, one forked
// substream per household, so output is identical at any thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/rng.h"
#include "faults/fault_plan.h"
#include "measurement/collectors.h"
#include "measurement/usage.h"
#include "netsim/fluid.h"
#include "netsim/workload.h"

namespace bblab::measurement {

/// Version of the household-simulation semantics. The content-addressed
/// simulation cache mixes this into every fingerprint, so cached results
/// are invalidated whenever the simulated behavior changes even though
/// the configs hash equal. Bump it on ANY change that alters the output
/// of simulate_household for a fixed (toolkit, task, rng) — workload
/// generation, fluid dynamics, collector sampling, fault application.
inline constexpr std::uint32_t kPipelineSemanticsVersion = 1;

enum class CollectorKind {
  kDasu,     ///< 30 s end-host byte counters (availability-biased)
  kGateway,  ///< hourly WAN totals, around the clock
};

/// One household-window to simulate.
struct HouseholdTask {
  netsim::WorkloadParams workload;
  netsim::AccessLink link;
  SimTime t0{0.0};
  std::size_t bins{0};
  double bin_width_s{30.0};
  CollectorKind collector{CollectorKind::kDasu};
  /// Stable RNG substream id (e.g. the household's user id). Two tasks
  /// with the same id see identical randomness; scheduling never matters.
  std::uint64_t stream_id{0};
};

/// Per-worker scratch for simulate_household: the workload's flow and
/// arrival buffers, the fluid engine's buffers and the summary columns
/// the collector's samples go into. The shard driver keeps one per block
/// of households, so every household after the first generates,
/// simulates and summarizes without per-flow or per-bin allocation.
struct HouseholdWorkspace {
  std::vector<netsim::Flow> flows;
  std::vector<SimTime> arrivals;
  netsim::FluidWorkspace fluid;
  SummaryColumns columns;
};

/// Shared read-only simulation components. All referenced objects must
/// outlive the calls and are used concurrently (their observe/generate
/// methods are const and state-free).
struct PipelineToolkit {
  const netsim::WorkloadGenerator* workload{nullptr};
  const DasuCollector* dasu{nullptr};
  const GatewayCollector* gateway{nullptr};
  /// Optional fault-injection plan; null or empty means clean data.
  const faults::FaultPlan* faults{nullptr};
  netsim::TcpModel tcp{};
};

/// A household's fault schedule in front of a sample sink: the returned
/// sink takes collector samples (`time, interval_s, down, up,
/// bt_active`; see collectors.h) and passes each on to `next` as the
/// schedule leaves it. In order: a sample whose time falls in a dropped
/// (outage or blackout) window is not passed on; a counter reset in
/// [time, time + interval_s) zeroes both rates, because the delta
/// spanning it is unrecoverable; a spurious wrap there adds a
/// 2^32-byte spike to the down rate. `time` is the end of the sample's
/// interval, so these two checks look one interval late (DESIGN.md,
/// "Deterministic fault injection").
template <typename Next>
[[nodiscard]] auto faulted_sink(const faults::HouseholdFaults& household, Next next) {
  return [&household, next](SimTime time, double interval_s, Rate down, Rate up,
                            bool bt_active) {
    if (household.in_dropped(time)) return;
    const auto hits = [&](const std::optional<double>& at) {
      return at && *at >= time && *at < time + interval_s;
    };
    if (hits(household.reset_time)) {
      down = Rate{};
      up = Rate{};
    }
    if (hits(household.spurious_wrap_time)) {
      constexpr double kWrapBytes = 4294967296.0;  // 2^32: one full 32-bit wrap
      down = Rate::from_bps(down.bps() + rate_over(kWrapBytes, interval_s).bps());
    }
    next(time, interval_s, down, up, bt_active);
  };
}

/// Spans one simulate_household call records when tracing is on:
/// measure.workload, measure.fluid and measure.collect.
inline constexpr std::size_t kSpansPerHousehold = 3;

/// Simulate one household end to end, drawing from `rng` in a fixed
/// order (workload generation first, then collector sampling), and
/// summarize what its collector observes. When the toolkit carries a
/// fault plan, the household's fault schedule is materialized from
/// (plan, task.stream_id) — independent of `rng`, so faults never perturb
/// the simulation's randomness — and every sample passes through it
/// (faulted_sink) on its way into `workspace.columns`; a household
/// selected for hard failure throws InjectedFault.
///
/// `workspace` is reusable scratch state: the shard driver passes one per
/// block of households, so every household-window after the first runs
/// without per-bin allocations.
[[nodiscard]] UsageSummary simulate_household(const PipelineToolkit& kit,
                                              const HouseholdTask& task, Rng& rng,
                                              HouseholdWorkspace& workspace);

}  // namespace bblab::measurement
