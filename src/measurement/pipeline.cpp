#include "measurement/pipeline.h"

#include <string>

#include "core/error.h"
#include "obs/span.h"

namespace bblab::measurement {

UsageSummary simulate_household(const PipelineToolkit& kit, const HouseholdTask& task,
                                Rng& rng, HouseholdWorkspace& ws) {
  require(kit.workload != nullptr, "simulate_household: workload generator required");
  require(task.bins > 0, "simulate_household: need at least one bin");
  const SimTime t1 = task.t0 + static_cast<double>(task.bins) * task.bin_width_s;

  faults::HouseholdFaults household;
  if (kit.faults != nullptr && !kit.faults->empty()) {
    household = faults::materialize(*kit.faults, task.stream_id, task.t0, t1);
    if (household.fail_household) {
      throw InjectedFault{"injected household failure (stream " +
                          std::to_string(task.stream_id) + ")"};
    }
  }

  {
    OBS_SPAN("measure.workload");
    kit.workload->generate(task.workload, task.link, task.t0, t1, rng, ws.flows,
                           ws.arrivals);
  }
  netsim::BinnedUsage truth;
  {
    OBS_SPAN("measure.fluid");
    const netsim::FluidLinkSimulator sim{task.link, kit.tcp};
    truth = sim.run(ws.flows, task.t0, task.bins, task.bin_width_s, ws.fluid);
  }
  OBS_SPAN("measure.collect");
  ws.columns.clear();
  ws.columns.reserve(truth.bins());
  const auto sink = faulted_sink(
      household, [&ws](SimTime, double, Rate down, Rate up, bool bt_active) {
        ws.columns.add(down, up, bt_active);
      });
  if (task.collector == CollectorKind::kGateway) {
    require(kit.gateway != nullptr, "simulate_household: gateway collector required");
    kit.gateway->sample(truth, sink);
  } else {
    require(kit.dasu != nullptr, "simulate_household: dasu collector required");
    kit.dasu->sample(truth, task.workload.phase_shift_hours, rng, sink);
  }
  return summarize(ws.columns);
}

}  // namespace bblab::measurement
