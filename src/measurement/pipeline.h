// Parallel per-household simulation pipeline.
//
// The paper's datasets are tens of thousands of independent
// household-windows, each run through the same workload -> fluid-link ->
// collector chain. This driver shards those households across a
// core::ThreadPool and merges the per-shard collector output back in
// task order, so the result vector — and every statistic computed from
// it — is bit-identical regardless of thread count. Determinism comes
// from the RNG substream scheme: household i draws only from
// base.fork(tasks[i].stream_id), never from a shared stream.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "faults/fault_plan.h"
#include "measurement/collectors.h"
#include "measurement/usage.h"
#include "netsim/fluid.h"
#include "netsim/workload.h"

namespace bblab::core {
class Hasher;
}

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

/// Feed every simulation-relevant field of a task into a fingerprint
/// hasher. Together with kPipelineSemanticsVersion and the RNG base this
/// addresses a household's simulated output — the cache lookup key for
/// batches run through parallel_simulate_households.
void fingerprint(core::Hasher& hasher, const HouseholdTask& task);

struct HouseholdResult {
  netsim::BinnedUsage truth;  ///< simulator ground truth
  /// What the instrument observed. Empty for a Dasu household simulated
  /// without an active fault plan: that path summarizes the samples as
  /// they are taken (DasuCollector::collect_summary) and never builds
  /// the series. Gateway households, and every household under a
  /// non-empty fault plan (apply_faults edits the series before it is
  /// summarized), carry the full series.
  UsageSeries series;
  UsageSummary summary;       ///< the per-user demand metrics
};

/// Per-worker scratch for simulate_household: the workload's flow and
/// arrival buffers, the fluid engine's buffers and the collector's
/// summary columns. Batch drivers keep one per block of households, so
/// every household after the first generates, simulates and summarizes
/// without per-flow or per-bin allocation.
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

/// Damage an observed series per a materialized household fault schedule:
/// drop samples inside outage/blackout windows, zero the sample spanning
/// a counter reset, add a +2^32-byte spike to the sample spanning a
/// spurious wrap, and shift every timestamp by the clock skew.
void apply_faults(UsageSeries& series, const faults::HouseholdFaults& household);

/// Spans one simulate_household call records when tracing is on:
/// measure.workload, measure.fluid and measure.collect.
inline constexpr std::size_t kSpansPerHousehold = 3;

/// Simulate one household end to end, drawing from `rng` in a fixed
/// order (workload generation first, then collector sampling). When the
/// toolkit carries a fault plan, the household's fault schedule is
/// materialized from (plan, task.stream_id) — independent of `rng`, so
/// faults never perturb the simulation's randomness — and applied to the
/// observed series; a household selected for hard failure throws
/// InjectedFault.
///
/// `workspace` is reusable scratch state: batch drivers pass one per
/// worker thread so every household-window after the first runs without
/// per-bin allocations. Null falls back to a per-call workspace
/// (identical output, just slower).
[[nodiscard]] HouseholdResult simulate_household(const PipelineToolkit& kit,
                                                 const HouseholdTask& task, Rng& rng,
                                                 HouseholdWorkspace* workspace = nullptr);

/// Simulate every task, sharded across `pool`, merging results in task
/// order. Household i uses base.fork(tasks[i].stream_id); output is
/// byte-identical for any pool size.
[[nodiscard]] std::vector<HouseholdResult> parallel_simulate_households(
    const PipelineToolkit& kit, std::span<const HouseholdTask> tasks,
    const Rng& base, core::ThreadPool& pool);

}  // namespace bblab::measurement
