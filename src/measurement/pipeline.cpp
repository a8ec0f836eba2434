#include "measurement/pipeline.h"

#include <algorithm>
#include <cstdint>
#include <string>

#include "core/error.h"
#include "core/hash.h"
#include "obs/span.h"

namespace bblab::measurement {

void fingerprint(core::Hasher& hasher, const HouseholdTask& task) {
  hasher.update_string("measurement::HouseholdTask");
  hasher.update_double(task.workload.intensity);
  hasher.update_double(task.workload.heavy_intensity);
  hasher.update_double(task.workload.bt_sessions_per_day);
  hasher.update_double(task.workload.phase_shift_hours);
  hasher.update_double(task.workload.video_top_mbps);
  hasher.update_double(task.link.down.bps());
  hasher.update_double(task.link.up.bps());
  hasher.update_double(task.link.rtt_ms);
  hasher.update_double(task.link.loss);
  hasher.update_double(task.t0);
  hasher.update_u64(task.bins);
  hasher.update_double(task.bin_width_s);
  hasher.update_u32(static_cast<std::uint32_t>(task.collector));
  hasher.update_u64(task.stream_id);
}

void apply_faults(UsageSeries& series, const faults::HouseholdFaults& household) {
  if (household.empty()) return;
  auto& samples = series.samples;
  if (!household.dropped.empty()) {
    std::erase_if(samples, [&](const UsageSample& s) {
      return household.in_dropped(s.time);
    });
  }
  constexpr double kWrapBytes = 4294967296.0;  // 2^32: one full 32-bit wrap
  for (auto& s : samples) {
    if (household.reset_time && *household.reset_time >= s.time &&
        *household.reset_time < s.time + s.interval_s) {
      // The delta spanning a counter reset is unrecoverable; a real
      // collector reports it as zero traffic.
      s.down = Rate{};
      s.up = Rate{};
    }
    if (household.spurious_wrap_time && *household.spurious_wrap_time >= s.time &&
        *household.spurious_wrap_time < s.time + s.interval_s) {
      s.down = Rate::from_bps(s.down.bps() +
                              rate_over(kWrapBytes, s.interval_s).bps());
    }
    s.time += household.clock_skew_s;
  }
}

HouseholdResult simulate_household(const PipelineToolkit& kit,
                                   const HouseholdTask& task, Rng& rng,
                                   HouseholdWorkspace* workspace) {
  require(kit.workload != nullptr, "simulate_household: workload generator required");
  require(task.bins > 0, "simulate_household: need at least one bin");
  const SimTime t1 = task.t0 + static_cast<double>(task.bins) * task.bin_width_s;

  const bool faulted = kit.faults != nullptr && !kit.faults->empty();
  faults::HouseholdFaults household;
  if (faulted) {
    household = faults::materialize(*kit.faults, task.stream_id, task.t0, t1);
    if (household.fail_household) {
      throw InjectedFault{"injected household failure (stream " +
                          std::to_string(task.stream_id) + ")"};
    }
  }

  HouseholdWorkspace local;
  HouseholdWorkspace& ws = workspace != nullptr ? *workspace : local;
  HouseholdResult result;
  {
    OBS_SPAN("measure.workload");
    kit.workload->generate(task.workload, task.link, task.t0, t1, rng, ws.flows,
                           ws.arrivals);
  }
  {
    OBS_SPAN("measure.fluid");
    const netsim::FluidLinkSimulator sim{task.link, kit.tcp};
    result.truth = sim.run(ws.flows, task.t0, task.bins, task.bin_width_s, ws.fluid);
  }
  OBS_SPAN("measure.collect");
  if (task.collector == CollectorKind::kGateway) {
    require(kit.gateway != nullptr, "simulate_household: gateway collector required");
    result.series = kit.gateway->collect(result.truth);
  } else {
    require(kit.dasu != nullptr, "simulate_household: dasu collector required");
    const double phase = task.workload.phase_shift_hours;
    if (!faulted) {
      // Nothing edits the samples, so summarize them as they are taken.
      result.summary = kit.dasu->collect_summary(result.truth, phase, rng, ws.columns);
      return result;
    }
    result.series = kit.dasu->collect(result.truth, phase, rng);
  }
  apply_faults(result.series, household);
  result.summary = summarize(result.series);
  return result;
}

std::vector<HouseholdResult> parallel_simulate_households(
    const PipelineToolkit& kit, std::span<const HouseholdTask> tasks,
    const Rng& base, core::ThreadPool& pool) {
  std::vector<HouseholdResult> results(tasks.size());
  // One thread may simulate the whole batch; keep every span it records.
  if (obs::tracing_enabled()) obs::add_trace_capacity(tasks.size() * kSpansPerHousehold);
  core::parallel_for(pool, tasks.size(), [&](std::size_t begin, std::size_t end) {
    // One workspace per contiguous block (the work-stealing pool
    // over-partitions into several blocks per worker): the scratch
    // buffers warm up on the first household and every later one in the
    // block simulates allocation-free. Each household still forks its
    // own Rng substream by stable stream id, so results do not depend on
    // how blocks land on threads.
    HouseholdWorkspace workspace;
    for (std::size_t i = begin; i < end; ++i) {
      Rng rng = base.fork(tasks[i].stream_id);
      results[i] = simulate_household(kit, tasks[i], rng, &workspace);
    }
  });
  return results;
}

}  // namespace bblab::measurement
