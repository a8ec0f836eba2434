// Property tests for the parallel simulation/analysis engine: thread
// count must never change any result, and the band-pruned matcher must
// reproduce the brute-force feasible-pair enumeration exactly.
#include "measurement/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "causal/matching.h"
#include "core/error.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "dataset/csv.h"
#include "dataset/generator.h"
#include "market/country.h"
#include "netsim/diurnal.h"

namespace bblab {
namespace {

using measurement::CollectorKind;
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

/// Series-level faults on every household but no hard failures.
faults::FaultPlan series_faults() {
  faults::FaultPlan plan;
  plan.churn_probability = 0.3;
  plan.reset_probability = 0.3;
  plan.spurious_wrap_probability = 0.3;
  plan.clock_skew_probability = 0.5;
  return plan;
}

/// Every byte a shard contributes: records, upgrade pairs and the
/// quarantine ledger.
std::string serialize_shard(const dataset::ShardOutput& out) {
  std::ostringstream os;
  dataset::write_user_records(os, out.records);
  dataset::write_upgrades(os, out.upgrades);
  os << "qc admitted=" << out.qc.admitted << "\n";
  for (const auto& row : out.qc.rows) {
    os << row.index << "|" << quarantine_reason_label(row.reason) << "|" << row.raw
       << "|" << row.detail << "\n";
  }
  return os.str();
}

/// Simulate the first Dasu shard of `country` and the first FCC shard of
/// `config`'s study, clean and under series_faults(), at pool sizes 1, 2
/// and 8: each shard's output must be the same bytes at every pool size.
/// Returns the clean pool-of-1 outputs for the caller's own checks.
std::vector<dataset::ShardOutput> expect_shards_identical_across_pools(
    dataset::StudyConfig config, const std::string& country) {
  const market::World& world = market::World::builtin();
  const dataset::StudyGenerator planner{world, config};
  const auto markets = planner.build_markets();
  const auto shards = planner.plan_shards(markets);
  std::vector<dataset::ShardSpec> picked;
  for (const auto kind : {dataset::ShardSpec::Kind::kDasu, dataset::ShardSpec::Kind::kFcc}) {
    const auto it = std::find_if(shards.begin(), shards.end(), [&](const auto& spec) {
      return spec.kind == kind &&
             (kind == dataset::ShardSpec::Kind::kFcc || spec.country_code == country);
    });
    EXPECT_NE(it, shards.end());
    if (it != shards.end()) picked.push_back(*it);
  }

  std::vector<dataset::ShardOutput> clean;
  for (const bool faulted : {false, true}) {
    if (faulted) config.faults = series_faults();
    const dataset::StudyGenerator gen{world, config};
    for (std::size_t k = 0; k < picked.size(); ++k) {
      const auto& spec = picked[k];
      core::ThreadPool pool1{1};
      auto serial = gen.simulate_shard(spec, markets, pool1);
      const auto bytes = serialize_shard(serial);
      EXPECT_FALSE(serial.records.empty()) << spec.label();
      EXPECT_TRUE(serial.qc.empty()) << spec.label();  // no hard failures
      if (faulted) {
        // The faults reached the records: the bytes differ from clean.
        EXPECT_NE(bytes, serialize_shard(clean[k])) << spec.label();
      }
      for (const std::size_t threads : {2u, 8u}) {
        core::ThreadPool pool{threads};
        EXPECT_EQ(serialize_shard(gen.simulate_shard(spec, markets, pool)), bytes)
            << spec.label() << " at " << threads << " threads"
            << (faulted ? " under faults" : "");
      }
      if (!faulted) clean.push_back(std::move(serial));
    }
  }
  return clean;
}

TEST(ParallelPipeline, ByteIdenticalAcrossThreadCounts) {
  dataset::StudyConfig config;
  config.seed = 2014;
  config.population_scale = 0.02;
  config.window_days = 0.5;
  config.fcc_users = 24;
  config.fcc_window_days = 0.5;
  config.first_year = 2011;
  config.last_year = 2011;
  config.upgrade_follow_share = 0.8;
  const auto clean = expect_shards_identical_across_pools(config, "US");
  ASSERT_EQ(clean.size(), 2u);
  // The Dasu shard exercises the upgrade follow-up; FCC shards never do.
  EXPECT_FALSE(clean[0].upgrades.empty());
  EXPECT_TRUE(clean[1].upgrades.empty());
}

/// One collector sample, as a recording sink keeps it.
struct Sample {
  SimTime time{0.0};
  double interval_s{0.0};
  Rate down;
  Rate up;
  bool bt_active{false};
};

/// simulate_household's chain written out with the samples kept as a
/// series: simulate the truth, record every sample, then edit the series
/// per the household's fault schedule (drop, then zero a reset, then
/// spike a wrap) and summarize what is left.
measurement::UsageSummary summarize_materialized_series(
    const PipelineFixture& fx, const faults::FaultPlan* plan, const HouseholdTask& task,
    Rng& rng) {
  const SimTime t1 = task.t0 + static_cast<double>(task.bins) * task.bin_width_s;
  const auto flows = fx.workload.generate(task.workload, task.link, task.t0, t1, rng);
  const netsim::FluidLinkSimulator sim{task.link, netsim::TcpModel{}};
  const auto truth = sim.run(flows, task.t0, task.bins, task.bin_width_s);
  std::vector<Sample> series;
  const auto record = [&](SimTime time, double interval_s, Rate down, Rate up,
                          bool bt_active) {
    series.push_back(Sample{time, interval_s, down, up, bt_active});
  };
  if (task.collector == CollectorKind::kGateway) {
    fx.gateway.sample(truth, record);
  } else {
    fx.dasu.sample(truth, task.workload.phase_shift_hours, rng, record);
  }

  measurement::SummaryColumns columns;
  const auto hf = plan != nullptr ? faults::materialize(*plan, task.stream_id, task.t0, t1)
                                  : faults::HouseholdFaults{};
  std::erase_if(series, [&](const Sample& x) { return hf.in_dropped(x.time); });
  for (auto& x : series) {
    const auto hits = [&](const std::optional<double>& at) {
      return at && *at >= x.time && *at < x.time + x.interval_s;
    };
    if (hits(hf.reset_time)) x.down = x.up = Rate{};
    if (hits(hf.spurious_wrap_time)) {
      x.down = Rate::from_bps(x.down.bps() + rate_over(4294967296.0, x.interval_s).bps());
    }
    columns.add(x.down, x.up, x.bt_active);
  }
  return measurement::summarize(columns);
}

TEST(ParallelPipeline, FusedSummaryEqualsMaterializedSeries) {
  // simulate_household summarizes each sample as it is taken, behind the
  // household's fault schedule. Keeping the whole series and editing it
  // afterwards must give the same summary and make the same draws, for
  // both collectors, with no plan, a plan that only mangles CSV rows, and
  // a plan that drops, zeroes and spikes samples.
  const PipelineFixture fx;
  const auto tasks = fx.make_tasks(60);
  faults::FaultPlan csv_only;
  csv_only.row_duplicate_probability = 0.5;
  const faults::FaultPlan series = series_faults();
  measurement::HouseholdWorkspace ws;
  std::vector<measurement::UsageSummary> clean;
  std::size_t edited = 0;
  const std::array<const faults::FaultPlan*, 3> plans{nullptr, &csv_only, &series};
  for (const faults::FaultPlan* plan : plans) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      Rng a = Rng{31}.fork(tasks[i].stream_id);
      Rng b = a;
      const auto fused = measurement::simulate_household(fx.kit(plan), tasks[i], a, ws);
      const auto want = summarize_materialized_series(fx, plan, tasks[i], b);
      EXPECT_EQ(fused, want) << i;
      EXPECT_EQ(a.next_u64(), b.next_u64()) << i;
      if (plan == nullptr) clean.push_back(fused);
      if (plan == &series && !(fused == clean[i])) ++edited;
    }
  }
  EXPECT_GT(edited, 10u);  // the series plan really changed summaries
}

TEST(ParallelPipeline, ByteIdenticalUnderAdversarialCostSkew) {
  // Property (work-stealing determinism): per-household cost skew
  // dictates which workers steal which blocks, and none of that may
  // reach the output. Over full-day windows the few heavy households
  // (BitTorrent, fast links) carry many times a light browser's traffic,
  // and so many times its flows to simulate: contiguous blocks are
  // unbalanced and the steal path runs at 2 and 8 threads.
  dataset::StudyConfig config;
  config.seed = 424242;
  config.population_scale = 0.05;
  config.window_days = 1.0;
  config.fcc_users = 16;
  config.fcc_window_days = 1.0;
  config.first_year = 2011;
  config.last_year = 2011;
  const auto clean = expect_shards_identical_across_pools(config, "US");
  ASSERT_EQ(clean.size(), 2u);
  for (const auto& shard : clean) {
    std::vector<double> bytes;
    for (const auto& rec : shard.records) bytes.push_back(rec.usage.mean_down.bps());
    std::sort(bytes.begin(), bytes.end());
    ASSERT_FALSE(bytes.empty());
    EXPECT_GT(bytes.back(), 5.0 * bytes[bytes.size() / 2])
        << "the heaviest household should dwarf the median one";
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

std::uint64_t bits_of(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

void expect_same_markets(const std::map<std::string, dataset::MarketSnapshot>& got,
                         const std::map<std::string, dataset::MarketSnapshot>& expected,
                         std::size_t threads) {
  ASSERT_EQ(got.size(), expected.size()) << threads << " threads";
  for (const auto& [code, want] : expected) {
    const auto it = got.find(code);
    ASSERT_NE(it, got.end()) << code;
    const dataset::MarketSnapshot& have = it->second;
    const std::string where = code + " at " + std::to_string(threads) + " threads";
    EXPECT_EQ(have.country, want.country) << where;
    EXPECT_EQ(bits_of(have.choice.wtp_multiplier()),
              bits_of(want.choice.wtp_multiplier()))
        << where;
    EXPECT_EQ(bits_of(have.access_price.dollars()), bits_of(want.access_price.dollars()))
        << where;
    EXPECT_EQ(bits_of(have.price_capacity_r), bits_of(want.price_capacity_r)) << where;
    // Bit patterns, so a NaN slope (r <= 0.4) must match as the same NaN.
    EXPECT_EQ(bits_of(have.upgrade_cost_per_mbps), bits_of(want.upgrade_cost_per_mbps))
        << where;
    const auto& a = have.catalog.plans();
    const auto& b = want.catalog.plans();
    ASSERT_EQ(a.size(), b.size()) << where;
    for (std::size_t p = 0; p < a.size(); ++p) {
      EXPECT_EQ(a[p].isp, b[p].isp) << where << " plan " << p;
      EXPECT_EQ(a[p].country_code, b[p].country_code) << where << " plan " << p;
      EXPECT_EQ(bits_of(a[p].download.bps()), bits_of(b[p].download.bps()))
          << where << " plan " << p;
      EXPECT_EQ(bits_of(a[p].upload.bps()), bits_of(b[p].upload.bps()))
          << where << " plan " << p;
      EXPECT_EQ(bits_of(a[p].monthly_price.dollars()),
                bits_of(b[p].monthly_price.dollars()))
          << where << " plan " << p;
      EXPECT_EQ(a[p].monthly_cap, b[p].monthly_cap) << where << " plan " << p;
      EXPECT_EQ(a[p].tech, b[p].tech) << where << " plan " << p;
      EXPECT_EQ(a[p].dedicated, b[p].dedicated) << where << " plan " << p;
    }
  }
}

// The markets come out bit for bit the same whether the countries are
// built on one thread or spread over a pool.
TEST(ParallelPipeline, MarketsIdenticalAcrossThreadCounts) {
  dataset::StudyConfig config;
  config.seed = 5;
  config.threads = 1;
  const auto serial = dataset::StudyGenerator{market::World::builtin(), config}.build_markets();
  ASSERT_EQ(serial.size(), market::World::builtin().size());
  bool saw_nan_slope = false;
  for (const auto& [code, snap] : serial) {
    saw_nan_slope = saw_nan_slope || std::isnan(snap.upgrade_cost_per_mbps);
  }
  EXPECT_TRUE(saw_nan_slope) << "no market exercises the NaN slope";
  for (const std::size_t threads : {2u, 8u}) {
    core::ThreadPool pool{threads};
    const auto parallel =
        dataset::StudyGenerator{market::World::builtin(), config}.build_markets(pool);
    expect_same_markets(parallel, serial, threads);
  }
}

// When several countries fail, the error is the one a serial walk would
// have raised: the first failing country in world order, at any thread
// count.
TEST(ParallelPipeline, FailingCountryErrorIsDeterministic) {
  std::vector<market::CountryProfile> countries(market::World::builtin().countries().begin(),
                                                market::World::builtin().countries().end());
  for (auto& country : countries) {
    if (country.code == "BR" || country.code == "US") country.max_capacity = Rate{};
  }
  const market::World world{countries};
  dataset::StudyConfig config;
  config.seed = 5;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    config.threads = threads;
    try {
      (void)dataset::StudyGenerator{world, config}.build_markets();
      ADD_FAILURE() << "no error at " << threads << " threads";
    } catch (const InvalidArgument& e) {
      EXPECT_EQ(std::string{e.what()}.rfind("market BR: ", 0), 0u)
          << e.what() << " at " << threads << " threads";
    }
  }
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
