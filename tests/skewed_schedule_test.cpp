// Gate on the work-stealing schedule: over the measured serial costs of
// perf_pipeline's skewed household mix (a few heavy tasks clustered at
// the front), the stealing pool's virtual makespan must be at least 2x
// shorter than a static contiguous partition's at 4 and 8 workers. The
// makespans are simulated from per-task costs (bench/skewed_schedule.h),
// so the gate holds on single-core and sanitizer builds alike.
#include "skewed_schedule.h"

#include <gtest/gtest.h>

#include "measurement/collectors.h"
#include "netsim/diurnal.h"
#include "netsim/workload.h"

namespace bblab::bench {
namespace {

TEST(SkewedSchedule, WorkStealingHalvesTheStaticMakespan) {
  const SimClock clock{2011};
  const netsim::DiurnalModel diurnal{netsim::DiurnalParams{}, clock};
  const netsim::WorkloadGenerator workload{diurnal};
  const measurement::DasuCollector dasu{measurement::DasuCollectorParams{}, diurnal};
  const measurement::GatewayCollector gateway{};
  measurement::PipelineToolkit kit;
  kit.workload = &workload;
  kit.dasu = &dasu;
  kit.gateway = &gateway;

  const auto tasks = skewed_tasks();
  const auto costs = measure_task_costs(kit, tasks);
  for (const std::size_t workers : {4, 8}) {
    const double stat = static_makespan(costs, workers);
    const double steal = steal_makespan(costs, workers);
    ASSERT_GT(steal, 0.0);
    EXPECT_GE(stat / steal, 2.0) << workers << " workers: static " << stat
                                 << " ms, stealing " << steal << " ms";
  }
}

}  // namespace
}  // namespace bblab::bench
