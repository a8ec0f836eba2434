// Unit-level tests of the figure pipelines against hand-built records —
// no generator involved, so the expected outputs are exact.
#include <gtest/gtest.h>

#include "analysis/figures.h"
#include "analysis/tables.h"
#include "stats/binning.h"

namespace bblab::analysis {
namespace {

dataset::UserRecord user(std::uint64_t id, const std::string& country, double cap_mbps,
                         double peak_kbps, double mean_kbps, int year = 2011) {
  dataset::UserRecord r;
  r.user_id = id;
  r.country_code = country;
  r.year = year;
  r.capacity = Rate::from_mbps(cap_mbps);
  r.rtt_ms = 50.0;
  r.loss = 0.001;
  r.access_price = MoneyPpp::usd(20.0);
  r.upgrade_cost_per_mbps = 1.0;
  r.usage.mean_down = Rate::from_kbps(mean_kbps);
  r.usage.peak_down = Rate::from_kbps(peak_kbps);
  r.usage.mean_down_no_bt = Rate::from_kbps(mean_kbps);
  r.usage.peak_down_no_bt = Rate::from_kbps(peak_kbps);
  r.usage.samples = 100;
  r.usage.samples_no_bt = 100;
  return r;
}

TEST(BinUsageSeries, GroupsByCapacityClassAndAverages) {
  std::vector<dataset::UserRecord> records;
  // Ten users in bin (0.8,1.6] at 200 kbps peak, ten in (6.4,12.8] at 2 Mbps.
  for (int i = 0; i < 10; ++i) {
    records.push_back(user(i, "US", 1.0, 200, 100));
    records.push_back(user(100 + i, "US", 10.0, 2000, 800));
  }
  std::vector<RecordPtr> ptrs;
  for (const auto& r : records) ptrs.push_back(&r);

  const auto series = bin_usage_series(
      ptrs, [](const dataset::UserRecord& r) { return peak_down_bps(r, false); }, 5);
  ASSERT_EQ(series.points.size(), 2u);
  EXPECT_EQ(series.points[0].bin, 4);
  EXPECT_NEAR(series.points[0].usage_mbps.mean, 0.2, 1e-9);
  EXPECT_EQ(series.points[0].users, 10u);
  EXPECT_EQ(series.points[1].bin, 7);
  EXPECT_NEAR(series.points[1].usage_mbps.mean, 2.0, 1e-9);
  // Perfect log-log alignment of two points: r = 1.
  EXPECT_NEAR(series.r, 1.0, 1e-9);
}

TEST(BinUsageSeries, DropsSparseBinsAndZeroUsage) {
  std::vector<dataset::UserRecord> records;
  for (int i = 0; i < 10; ++i) records.push_back(user(i, "US", 1.0, 200, 100));
  records.push_back(user(99, "US", 50.0, 9000, 4000));  // lone user: dropped
  records.push_back(user(98, "US", 1.0, 0, 0));         // zero usage: dropped
  std::vector<RecordPtr> ptrs;
  for (const auto& r : records) ptrs.push_back(&r);
  const auto series = bin_usage_series(
      ptrs, [](const dataset::UserRecord& r) { return peak_down_bps(r, false); }, 5);
  ASSERT_EQ(series.points.size(), 1u);
  EXPECT_EQ(series.points[0].users, 10u);
}

dataset::StudyDataset tiny_dataset() {
  dataset::StudyDataset ds;
  for (int i = 0; i < 40; ++i) {
    // Two countries with contrasting utilization.
    ds.dasu.push_back(user(i, "AA", 1.0, 800, 400));         // 80% peak util
    ds.dasu.push_back(user(100 + i, "BB", 10.0, 1000, 300)); // 10% peak util
  }
  return ds;
}

TEST(Fig7Pipeline, ComputesPerCountryUtilization) {
  const auto ds = tiny_dataset();
  const auto fig = fig7_country_cdfs(ds, {"AA", "BB"});
  ASSERT_EQ(fig.size(), 2u);
  EXPECT_NEAR(fig[0].peak_utilization.inverse(0.5), 0.8, 1e-9);
  EXPECT_NEAR(fig[1].peak_utilization.inverse(0.5), 0.1, 1e-9);
  EXPECT_NEAR(fig[0].capacity_mbps.inverse(0.5), 1.0, 1e-9);
}

TEST(Fig8Pipeline, RespectsThirtyUserMinimum) {
  const auto ds = tiny_dataset();  // 40 users per country, one tier each
  const auto fig = fig8_tier_utilization(ds, {"AA", "BB"});
  ASSERT_EQ(fig.size(), 2u);
  ASSERT_EQ(fig[0].tiers.size(), 1u);
  EXPECT_EQ(fig[0].tiers[0].first, "1-8 Mbps");
  ASSERT_EQ(fig[1].tiers.size(), 1u);
  EXPECT_EQ(fig[1].tiers[0].first, "8-16 Mbps");

  // A country with only 20 users in a tier publishes nothing.
  dataset::StudyDataset sparse;
  for (int i = 0; i < 20; ++i) sparse.dasu.push_back(user(i, "CC", 2.0, 500, 200));
  const auto fig_sparse = fig8_tier_utilization(sparse, {"CC"});
  ASSERT_EQ(fig_sparse.size(), 1u);
  EXPECT_TRUE(fig_sparse[0].tiers.empty());
}

TEST(Fig8Pipeline, TiersFollowCapacityOrder) {
  // 30 users in each tier, added fastest first: the output must still run
  // from the slowest tier to the fastest, not in label order.
  dataset::StudyDataset ds;
  std::uint64_t id = 0;
  for (const double cap_mbps : {40.0, 20.0, 10.0, 4.0, 0.5}) {
    for (int i = 0; i < 30; ++i) ds.dasu.push_back(user(id++, "AA", cap_mbps, 100, 50));
  }
  const auto fig = fig8_tier_utilization(ds, {"AA"});
  ASSERT_EQ(fig.size(), 1u);
  std::vector<std::string> labels;
  for (const auto& [label, ecdf] : fig[0].tiers) labels.push_back(label);
  std::vector<std::string> expected;
  for (const auto tier : stats::all_tiers()) expected.push_back(stats::tier_label(tier));
  EXPECT_EQ(labels, expected);
  EXPECT_EQ(labels.front(), "<1 Mbps");
  EXPECT_EQ(labels.back(), ">32 Mbps");
}

TEST(Fig9Pipeline, AveragesPeakDemandPerTier) {
  const auto ds = tiny_dataset();
  const auto fig = fig9_tier_demand(ds, {"AA", "BB"});
  ASSERT_EQ(fig.size(), 2u);
  EXPECT_EQ(fig[0].country, "AA");
  EXPECT_NEAR(fig[0].peak_demand_mbps.mean, 0.8, 1e-9);
  EXPECT_EQ(fig[1].country, "BB");
  EXPECT_NEAR(fig[1].peak_demand_mbps.mean, 1.0, 1e-9);
}

TEST(Fig4Pipeline, UsesOnlyTrueUpgrades) {
  dataset::StudyDataset ds;
  dataset::UpgradeObservation up;
  up.old_capacity = Rate::from_mbps(2);
  up.new_capacity = Rate::from_mbps(8);
  up.before.mean_down_no_bt = Rate::from_kbps(100);
  up.after.mean_down_no_bt = Rate::from_kbps(250);
  up.before.peak_down_no_bt = Rate::from_kbps(500);
  up.after.peak_down_no_bt = Rate::from_kbps(1500);
  ds.upgrades.push_back(up);

  dataset::UpgradeObservation down = up;  // a downgrade: must be ignored
  down.new_capacity = Rate::from_mbps(1);
  ds.upgrades.push_back(down);

  const auto fig = fig4_slow_fast_cdfs(ds);
  EXPECT_EQ(fig.mean_slow.size(), 1u);
  EXPECT_DOUBLE_EQ(fig.mean_fast.inverse(0.5), 250.0);
  EXPECT_DOUBLE_EQ(fig.peak_fast.inverse(0.5), 1500.0);
}

TEST(Tab1Pipeline, CountsWinsOverTrueUpgrades) {
  dataset::StudyDataset ds;
  for (int i = 0; i < 30; ++i) {
    dataset::UpgradeObservation up;
    up.old_capacity = Rate::from_mbps(2);
    up.new_capacity = Rate::from_mbps(8);
    up.before.mean_down_no_bt = Rate::from_kbps(100);
    up.after.mean_down_no_bt = Rate::from_kbps(i < 24 ? 200 : 50);  // 80% wins
    up.before.peak_down_no_bt = Rate::from_kbps(400);
    up.after.peak_down_no_bt = Rate::from_kbps(900);
    ds.upgrades.push_back(up);
  }
  const auto tab = tab1_upgrade_experiment(ds);
  EXPECT_EQ(tab.average.pairs, 30u);
  EXPECT_NEAR(tab.average.test.fraction, 0.8, 1e-9);
  EXPECT_NEAR(tab.peak.test.fraction, 1.0, 1e-9);
  EXPECT_TRUE(tab.peak.test.conclusive());
}

}  // namespace
}  // namespace bblab::analysis
