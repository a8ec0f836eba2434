// Property tests for the parallel simulation/analysis engine: thread
// count must never change any result, and the band-pruned matcher must
// reproduce the brute-force feasible-pair enumeration exactly.
#include "measurement/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <sstream>
#include <vector>

#include "causal/matching.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "dataset/csv.h"
#include "dataset/generator.h"
#include "market/country.h"
#include "netsim/diurnal.h"

namespace bblab {
namespace {

using measurement::CollectorKind;
using measurement::HouseholdResult;
using measurement::HouseholdTask;
using measurement::PipelineToolkit;

struct PipelineFixture {
  SimClock clock{2011};
  netsim::DiurnalModel diurnal{netsim::DiurnalParams{}, clock};
  netsim::WorkloadGenerator workload{diurnal};
  measurement::DasuCollector dasu{measurement::DasuCollectorParams{}, diurnal};
  measurement::GatewayCollector gateway{};

  [[nodiscard]] PipelineToolkit kit(const faults::FaultPlan* plan = nullptr) const {
    PipelineToolkit k;
    k.workload = &workload;
    k.dasu = &dasu;
    k.gateway = &gateway;
    k.faults = plan;
    return k;
  }

  /// A mixed batch: varied capacities, workloads, and both collectors.
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
      t.workload.heavy_intensity = rng.uniform(0.3, 2.0);
      t.workload.bt_sessions_per_day = rng.bernoulli(0.3) ? 1.0 : 0.0;
      t.workload.phase_shift_hours = rng.normal(0.0, 1.5);
      t.t0 = std::floor(rng.uniform(0.0, 300.0)) * kDay;
      t.bins = 720;  // six hours at 30 s
      t.bin_width_s = 30.0;
      t.collector = i % 3 == 0 ? CollectorKind::kGateway : CollectorKind::kDasu;
      t.stream_id = 1000 + i;
      tasks.push_back(t);
    }
    return tasks;
  }
};

void expect_identical(const HouseholdResult& a, const HouseholdResult& b,
                      std::size_t household) {
  ASSERT_EQ(a.truth.bins(), b.truth.bins()) << household;
  for (std::size_t i = 0; i < a.truth.bins(); ++i) {
    ASSERT_EQ(a.truth.down_bytes[i], b.truth.down_bytes[i]) << household;
    ASSERT_EQ(a.truth.up_bytes[i], b.truth.up_bytes[i]) << household;
    ASSERT_EQ(a.truth.bt_active_s[i], b.truth.bt_active_s[i]) << household;
  }
  ASSERT_EQ(a.series.size(), b.series.size()) << household;
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    ASSERT_EQ(a.series.samples[i].time, b.series.samples[i].time) << household;
    ASSERT_EQ(a.series.samples[i].down.bps(), b.series.samples[i].down.bps());
    ASSERT_EQ(a.series.samples[i].up.bps(), b.series.samples[i].up.bps());
    ASSERT_EQ(a.series.samples[i].bt_active, b.series.samples[i].bt_active);
  }
  ASSERT_EQ(a.summary.mean_down.bps(), b.summary.mean_down.bps()) << household;
  ASSERT_EQ(a.summary.peak_down.bps(), b.summary.peak_down.bps()) << household;
  ASSERT_EQ(a.summary.mean_down_no_bt.bps(), b.summary.mean_down_no_bt.bps());
  ASSERT_EQ(a.summary.peak_down_no_bt.bps(), b.summary.peak_down_no_bt.bps());
  ASSERT_EQ(a.summary.samples, b.summary.samples) << household;
  ASSERT_EQ(a.summary.samples_no_bt, b.summary.samples_no_bt) << household;
}

/// Series-level faults on every household but no hard failures. An
/// active plan makes every household keep its observed series, so the
/// series comparisons below see real samples.
faults::FaultPlan series_faults() {
  faults::FaultPlan plan;
  plan.churn_probability = 0.3;
  plan.reset_probability = 0.3;
  plan.spurious_wrap_probability = 0.3;
  plan.clock_skew_probability = 0.5;
  return plan;
}

/// The number of Dasu households (tasks i % 3 != 0) with a non-empty
/// observed series.
std::size_t dasu_series_count(const std::vector<HouseholdResult>& results) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i % 3 != 0 && !results[i].series.empty()) ++n;
  }
  return n;
}

TEST(ParallelPipeline, ByteIdenticalAcrossThreadCounts) {
  const PipelineFixture fx;
  const auto tasks = fx.make_tasks(23);
  const Rng base{2014};
  const auto plan = series_faults();

  // Clean runs compare summaries (Dasu households keep no series);
  // faulted runs also compare every observed sample.
  for (const bool faulted : {false, true}) {
    const auto kit = fx.kit(faulted ? &plan : nullptr);
    core::ThreadPool pool1{1};
    const auto serial = measurement::parallel_simulate_households(kit, tasks, base, pool1);
    ASSERT_EQ(serial.size(), tasks.size());
    if (faulted) {
      EXPECT_GE(dasu_series_count(serial), 10u);  // of 15 Dasu households
    } else {
      EXPECT_EQ(dasu_series_count(serial), 0u);
    }
    for (const std::size_t threads : {2u, 8u}) {
      core::ThreadPool pool{threads};
      const auto parallel =
          measurement::parallel_simulate_households(kit, tasks, base, pool);
      ASSERT_EQ(parallel.size(), serial.size());
      for (std::size_t i = 0; i < serial.size(); ++i) {
        expect_identical(serial[i], parallel[i], i);
      }
    }
  }
}

TEST(ParallelPipeline, FusedSummaryEqualsMaterializedSeries) {
  // Without a fault plan a Dasu household is summarized as it is
  // sampled. A plan that only mangles CSV rows is active, so the series
  // is materialized and then summarized, yet it leaves every sample
  // untouched: both paths must agree field for field and in RNG draws.
  const PipelineFixture fx;
  const auto tasks = fx.make_tasks(60);
  faults::FaultPlan csv_only;
  csv_only.row_duplicate_probability = 0.5;
  measurement::HouseholdWorkspace ws;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].collector != CollectorKind::kDasu) continue;
    Rng a = Rng{31}.fork(tasks[i].stream_id);
    Rng b = a;
    const auto fused = measurement::simulate_household(fx.kit(), tasks[i], a, &ws);
    const auto series = measurement::simulate_household(fx.kit(&csv_only), tasks[i], b);
    EXPECT_TRUE(fused.series.empty());
    ASSERT_FALSE(series.series.empty());
    EXPECT_EQ(fused.summary, series.summary) << i;
    EXPECT_EQ(a.next_u64(), b.next_u64()) << i;
  }
}

TEST(ParallelPipeline, ByteIdenticalUnderAdversarialCostSkew) {
  // Property (work-stealing determinism): per-task cost skew dictates
  // which workers steal which blocks, and none of that may reach the
  // output. The batch alternates a few very heavy households (saturating
  // BitTorrent users simulated over a long window) with swarms of
  // near-idle ones, so static contiguous blocks are maximally unbalanced
  // and the steal path actually runs at 2 and 8 threads.
  const PipelineFixture fx;
  Rng rng{424242};
  std::vector<HouseholdTask> tasks;
  for (std::size_t i = 0; i < 40; ++i) {
    HouseholdTask t;
    const bool heavy = i % 13 == 0;  // ~3 heavy tasks, unevenly placed
    t.link.down = Rate::from_mbps(heavy ? 100.0 : rng.uniform(1.0, 4.0));
    t.link.up = Rate::from_mbps(heavy ? 10.0 : 0.5);
    t.link.rtt_ms = rng.uniform(10.0, 300.0);
    t.link.loss = rng.uniform(0.0, 0.01);
    t.workload.intensity = heavy ? 3.0 : 0.05;
    t.workload.heavy_intensity = heavy ? 3.0 : 0.05;
    t.workload.bt_sessions_per_day = heavy ? 6.0 : 0.0;
    t.workload.phase_shift_hours = rng.normal(0.0, 1.5);
    t.t0 = std::floor(rng.uniform(0.0, 300.0)) * kDay;
    t.bins = heavy ? 2880 : 120;  // 24h vs 1h at 30s bins
    t.bin_width_s = 30.0;
    t.collector = i % 3 == 0 ? CollectorKind::kGateway : CollectorKind::kDasu;
    t.stream_id = 5000 + i;
    tasks.push_back(t);
  }
  const Rng base{2014};

  const auto plan = series_faults();

  // The clean run is the production path: Dasu summaries are written into
  // each block's reused workspace while blocks are stolen. The faulted
  // run also compares every observed sample.
  for (const bool faulted : {false, true}) {
    const auto kit = fx.kit(faulted ? &plan : nullptr);
    core::ThreadPool pool1{1};
    const auto serial = measurement::parallel_simulate_households(kit, tasks, base, pool1);
    ASSERT_EQ(serial.size(), tasks.size());
    if (faulted) {
      EXPECT_GT(dasu_series_count(serial), 0u);
    } else {
      EXPECT_EQ(dasu_series_count(serial), 0u);
    }
    for (const std::size_t threads : {2u, 8u}) {
      core::ThreadPool pool{threads};
      const auto parallel =
          measurement::parallel_simulate_households(kit, tasks, base, pool);
      ASSERT_EQ(parallel.size(), serial.size());
      for (std::size_t i = 0; i < serial.size(); ++i) {
        expect_identical(serial[i], parallel[i], i);
      }
    }
  }
}

TEST(ParallelPipeline, MatchesDirectSimulateHousehold) {
  const PipelineFixture fx;
  const auto tasks = fx.make_tasks(5);
  const Rng base{7};
  core::ThreadPool pool{4};
  const auto batch =
      measurement::parallel_simulate_households(fx.kit(), tasks, base, pool);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    Rng rng = base.fork(tasks[i].stream_id);
    const auto direct = measurement::simulate_household(fx.kit(), tasks[i], rng);
    expect_identical(direct, batch[i], i);
  }
}

TEST(ParallelPipeline, GeneratorDatasetInvariantUnderThreads) {
  dataset::StudyConfig config;
  config.seed = 77;
  config.population_scale = 0.01;  // ~120 households, keeps the test quick
  config.window_days = 0.5;
  config.fcc_users = 30;
  config.fcc_window_days = 0.5;
  config.first_year = 2011;
  config.last_year = 2011;

  const auto serialize = [](const dataset::StudyDataset& ds) {
    std::ostringstream os;
    dataset::write_user_records(os, ds.dasu);
    dataset::write_user_records(os, ds.fcc);
    dataset::write_upgrades(os, ds.upgrades);
    return os.str();
  };

  config.threads = 1;
  const auto one =
      serialize(dataset::StudyGenerator{market::World::builtin(), config}.generate());
  config.threads = 3;
  const auto three =
      serialize(dataset::StudyGenerator{market::World::builtin(), config}.generate());
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, three);
}

// --- matcher equivalence ---------------------------------------------------

/// The seed's O(T x C) enumeration, kept as the reference oracle: every
/// within_caliper pair, sorted by (distance, treated, control), taken
/// greedily while both endpoints are free.
std::vector<causal::MatchedPair> brute_force_match(const causal::UnitTable& treated,
                                                   const causal::UnitTable& control,
                                                   const causal::MatcherOptions& options) {
  std::vector<causal::MatchedPair> feasible;
  for (std::size_t t = 0; t < treated.size(); ++t) {
    for (std::size_t c = 0; c < control.size(); ++c) {
      if (!causal::within_caliper(treated.covariates(t), control.covariates(c), options)) {
        continue;
      }
      feasible.push_back(
          {t, c, causal::covariate_distance(treated.covariates(t), control.covariates(c))});
    }
  }
  std::sort(feasible.begin(), feasible.end(),
            [](const causal::MatchedPair& a, const causal::MatchedPair& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              if (a.treated_index != b.treated_index) {
                return a.treated_index < b.treated_index;
              }
              return a.control_index < b.control_index;
            });
  std::vector<bool> treated_used(treated.size(), false);
  std::vector<bool> control_used(control.size(), false);
  std::vector<causal::MatchedPair> pairs;
  for (const auto& p : feasible) {
    if (treated_used[p.treated_index] || control_used[p.control_index]) continue;
    treated_used[p.treated_index] = true;
    control_used[p.control_index] = true;
    pairs.push_back(p);
  }
  return pairs;
}

std::uint64_t bits_of(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

void expect_same_pairs(const std::vector<causal::MatchedPair>& got,
                       const std::vector<causal::MatchedPair>& expected, const char* path) {
  ASSERT_EQ(got.size(), expected.size()) << path;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i].treated_index, expected[i].treated_index) << path << " pair " << i;
    EXPECT_EQ(got[i].control_index, expected[i].control_index) << path << " pair " << i;
    EXPECT_EQ(bits_of(got[i].distance), bits_of(expected[i].distance))
        << path << " pair " << i;
  }
}

class CaliperEquivalenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

// The seed picks the shape: seeds that are 3 mod 8 have one treated
// unit, seeds that are 7 mod 8 one control; seeds that are 5 mod 6 have a
// caliper >= 1 (no band pruning); even seeds duplicate control rows.
// Dimensions run from 1 to 6, so both the scans specialised for dims 1-4
// and the general one are compared. Covariates mix
// continuous draws of any scale and sign (exact zeros exercise the
// slacks) with market-level covariates that take only a few values, so
// distances tie and the (distance, treated, control) tie-break decides.
TEST_P(CaliperEquivalenceProperty, PrunedMatcherEqualsBruteForce) {
  const std::uint64_t seed = GetParam();
  Rng rng{seed};
  const std::size_t nt = seed % 8 == 3 ? 1 : 20 + rng.index(180);
  const std::size_t nc = seed % 8 == 7 ? 1 : 20 + rng.index(180);
  const std::size_t dims = 1 + rng.index(6);
  std::vector<bool> market_level(dims);
  for (std::size_t d = 0; d < dims; ++d) market_level[d] = rng.bernoulli(0.4);
  const std::vector<double> levels{0.0, 10.0, 25.0, 40.0};
  const auto draw_row = [&] {
    std::vector<double> row;
    for (std::size_t d = 0; d < dims; ++d) {
      if (market_level[d]) {
        row.push_back(levels[rng.index(levels.size())]);
        continue;
      }
      double v = rng.lognormal(rng.uniform(0.0, 3.0), 1.0);
      if (rng.bernoulli(0.1)) v = 0.0;
      if (rng.bernoulli(0.2)) v = -v;
      row.push_back(v);
    }
    return row;
  };
  causal::UnitTable treated{dims};
  causal::UnitTable control{dims};
  for (std::size_t i = 0; i < nt; ++i) treated.push_back(rng.uniform(), draw_row(), i);
  const bool duplicates = seed % 2 == 0;
  for (std::size_t i = 0; i < nc; ++i) {
    if (duplicates && i > 0 && rng.bernoulli(0.3)) {
      const auto earlier = control.covariates(rng.index(i));
      const std::vector<double> copy(earlier.begin(), earlier.end());
      control.push_back(rng.uniform(), copy, i);
    } else {
      control.push_back(rng.uniform(), draw_row(), i);
    }
  }

  causal::MatcherOptions options;
  options.caliper = seed % 6 == 5 ? rng.uniform(1.0, 3.0) : rng.uniform(0.05, 0.6);
  options.absolute_slack = rng.bernoulli(0.5) ? 1e-9 : 1e-3;
  if (rng.bernoulli(0.3)) options.absolute_slacks = {0.5};

  const auto expected = brute_force_match(treated, control, options);
  const causal::CaliperMatcher matcher{options};
  expect_same_pairs(matcher.match(treated, control), expected, "serial");
  core::ThreadPool pool{4};
  expect_same_pairs(matcher.match(treated, control, &pool), expected, "pool");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CaliperEquivalenceProperty,
                         ::testing::Range<std::uint64_t>(1, 49));

}  // namespace
}  // namespace bblab
