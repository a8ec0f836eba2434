#include "measurement/pipeline.h"

#include <algorithm>
#include <cstdint>
#include <string>

#include "core/error.h"
#include "obs/span.h"

namespace bblab::measurement {

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

}  // namespace bblab::measurement
