// Graceful-degradation properties of the fault-injected pipeline.
// simulate_household does not isolate failures: an injected household
// failure propagates. The generator quarantines it instead, its
// failure-rate threshold aborts a run that is mostly garbage, and the
// whole degraded dataset, quarantine ledger included, stays bit-identical
// across thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "dataset/csv.h"
#include "dataset/generator.h"
#include "faults/fault_plan.h"
#include "market/country.h"
#include "measurement/pipeline.h"
#include "netsim/diurnal.h"

namespace bblab {
namespace {

using measurement::CollectorKind;
using measurement::HouseholdTask;
using measurement::PipelineToolkit;

struct RobustnessFixture {
  SimClock clock{2011};
  netsim::DiurnalModel diurnal{netsim::DiurnalParams{}, clock};
  netsim::WorkloadGenerator workload{diurnal};
  measurement::DasuCollector dasu{measurement::DasuCollectorParams{}, diurnal};
  measurement::GatewayCollector gateway{};
  faults::FaultPlan plan;

  [[nodiscard]] PipelineToolkit kit() const {
    PipelineToolkit k;
    k.workload = &workload;
    k.dasu = &dasu;
    k.gateway = &gateway;
    if (!plan.empty()) k.faults = &plan;
    return k;
  }

  [[nodiscard]] std::vector<HouseholdTask> make_tasks(std::size_t n) const {
    Rng rng{99};
    std::vector<HouseholdTask> tasks;
    tasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      HouseholdTask t;
      t.link.down = Rate::from_mbps(rng.uniform(1.0, 50.0));
      t.link.up = Rate::from_mbps(rng.uniform(0.5, 5.0));
      t.link.rtt_ms = rng.uniform(10.0, 300.0);
      t.link.loss = rng.uniform(0.0, 0.01);
      t.workload.intensity = rng.uniform(0.3, 2.0);
      t.bins = 240;  // two hours at 30 s, enough to observe faults
      t.bin_width_s = 30.0;
      t.collector = i % 3 == 0 ? CollectorKind::kGateway : CollectorKind::kDasu;
      t.stream_id = 1000 + i;
      tasks.push_back(t);
    }
    return tasks;
  }
};

TEST(Robustness, WithoutIsolationInjectedFailureIsFatal) {
  RobustnessFixture fx;
  fx.plan = faults::FaultPlan::parse("fail=1.0");
  measurement::HouseholdWorkspace ws;
  for (const HouseholdTask& task : fx.make_tasks(4)) {
    Rng rng = Rng{2014}.fork(task.stream_id);
    EXPECT_THROW((void)measurement::simulate_household(fx.kit(), task, rng, ws),
                 InjectedFault);
  }
}

/// Serialize a dataset plus its QC ledger so byte-equality covers both.
std::string serialize_with_qc(const dataset::StudyDataset& ds) {
  std::ostringstream os;
  dataset::write_user_records(os, ds.dasu);
  dataset::write_user_records(os, ds.fcc);
  dataset::write_upgrades(os, ds.upgrades);
  os << "qc admitted=" << ds.qc.admitted << "\n";
  for (const auto& row : ds.qc.rows) {
    os << row.index << "|" << quarantine_reason_label(row.reason) << "|"
       << row.raw << "|" << row.detail << "\n";
  }
  return os.str();
}

TEST(Robustness, GeneratorWithFaultsInvariantUnderThreads) {
  dataset::StudyConfig config;
  config.seed = 77;
  config.population_scale = 0.01;
  config.window_days = 0.5;
  config.fcc_users = 20;
  config.fcc_window_days = 0.5;
  config.first_year = 2011;
  config.last_year = 2011;
  config.faults = faults::FaultPlan::parse(
      "churn=0.3,outage_h=1,blackout=0.2,reset=0.2,wrap=0.2,skew=0.5,fail=0.05");
  config.max_household_failure_rate = 1.0;  // never abort this test

  config.threads = 1;
  const auto one = serialize_with_qc(
      dataset::StudyGenerator{market::World::builtin(), config}.generate());
  config.threads = 3;
  const auto three = serialize_with_qc(
      dataset::StudyGenerator{market::World::builtin(), config}.generate());
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, three);
}

TEST(Robustness, GeneratorQuarantinesInjectedHouseholdFailures) {
  dataset::StudyConfig config;
  config.seed = 5;
  config.population_scale = 0.01;
  config.window_days = 0.25;
  config.fcc_users = 10;
  config.fcc_window_days = 0.25;
  config.first_year = 2011;
  config.last_year = 2011;
  config.max_household_failure_rate = 1.0;
  config.faults = faults::FaultPlan::parse("fail=0.3");

  const auto ds =
      dataset::StudyGenerator{market::World::builtin(), config}.generate();
  EXPECT_FALSE(ds.qc.empty());
  EXPECT_GT(ds.qc.count(QuarantineReason::kInjectedFault), 0u);
  EXPECT_GT(ds.dasu.size(), 0u);  // the run still produced usable records

  // The same config with a tight threshold aborts instead.
  config.max_household_failure_rate = 0.001;
  EXPECT_THROW((dataset::StudyGenerator{market::World::builtin(), config}.generate()),
               AnalysisError);
}

}  // namespace
}  // namespace bblab
