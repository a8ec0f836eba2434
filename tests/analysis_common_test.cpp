#include "analysis/common.h"

#include <gtest/gtest.h>

#include <cmath>

namespace bblab::analysis {
namespace {

dataset::UserRecord record(const std::string& country, double cap_mbps, double rtt,
                           double loss, double mean_kbps, double peak_kbps) {
  dataset::UserRecord r;
  r.country_code = country;
  r.capacity = Rate::from_mbps(cap_mbps);
  r.rtt_ms = rtt;
  r.loss = loss;
  r.access_price = MoneyPpp::usd(20.0);
  r.upgrade_cost_per_mbps = 1.0;
  r.usage.mean_down = Rate::from_kbps(mean_kbps);
  r.usage.peak_down = Rate::from_kbps(peak_kbps);
  r.usage.mean_down_no_bt = Rate::from_kbps(mean_kbps * 0.8);
  r.usage.peak_down_no_bt = Rate::from_kbps(peak_kbps * 0.8);
  return r;
}

TEST(AnalysisCommon, MetricSelectors) {
  const auto r = record("US", 10, 40, 0.001, 100, 900);
  EXPECT_DOUBLE_EQ(mean_down_bps(r, true), 100e3);
  EXPECT_DOUBLE_EQ(mean_down_bps(r, false), 80e3);
  EXPECT_DOUBLE_EQ(peak_down_bps(r, true), 900e3);
  EXPECT_DOUBLE_EQ(peak_down_bps(r, false), 720e3);
}

TEST(AnalysisCommon, FilterAndColumn) {
  const auto a = record("US", 10, 40, 0.001, 100, 900);
  const auto b = record("JP", 50, 30, 0.0004, 200, 1500);
  const std::vector<RecordPtr> records{&a, &b};
  const auto us = filter(records, [](const dataset::UserRecord& r) {
    return r.country_code == "US";
  });
  ASSERT_EQ(us.size(), 1u);
  const auto caps =
      column(records, [](const dataset::UserRecord& r) { return r.capacity.mbps(); });
  EXPECT_EQ(caps, (std::vector<double>{10.0, 50.0}));
}

TEST(AnalysisCommon, MakeUnitsSkipsNonFinite) {
  auto good = record("US", 10, 40, 0.001, 100, 900);
  auto bad = record("AF", 1, 300, 0.01, 50, 400);
  bad.upgrade_cost_per_mbps = std::nan("");  // weakly-correlated market
  const std::vector<RecordPtr> records{&good, &bad};
  const auto units = make_units(records, peak_down_field(false), covariates::kQualityAndMarket);
  ASSERT_EQ(units.size(), 1u);
  EXPECT_EQ(units.tag(0), 0u);
  EXPECT_EQ(units.dim(), 4u);
  EXPECT_DOUBLE_EQ(units.outcome(0), 720e3);
  EXPECT_DOUBLE_EQ(units.covariates(0)[0], 40.0);   // rtt
  EXPECT_DOUBLE_EQ(units.covariates(0)[2], 20.0);   // access price
}

TEST(AnalysisCommon, CovariateSetDimensions) {
  EXPECT_EQ(covariates::kQualityAndMarket.size(), 4u);
  EXPECT_EQ(covariates::kCapacityQuality.size(), 3u);
  EXPECT_EQ(covariates::kQuality.size(), 2u);
  EXPECT_EQ(covariates::kPriceExperiment.size(), 4u);
  EXPECT_EQ(covariates::kUpgradeCostExperiment.size(), 4u);
  EXPECT_EQ(covariates::kLatencyExperiment.size(), 3u);
  EXPECT_EQ(covariates::kLossExperiment.size(), 3u);
  EXPECT_EQ(covariates::kCapacity.size(), 1u);
}

TEST(AnalysisCommon, FieldValuesMatchRecordAccessors) {
  const auto r = record("US", 10, 40, 0.001, 100, 900);
  EXPECT_EQ(field_value(r, Field::kCapacityMbps), r.capacity.mbps());
  EXPECT_EQ(field_value(r, Field::kRttMs), 40.0);
  EXPECT_EQ(field_value(r, Field::kLoss), 0.001);
  EXPECT_EQ(field_value(r, Field::kAccessPriceUsd), 20.0);
  EXPECT_EQ(field_value(r, Field::kUpgradeCostPerMbps), 1.0);
  for (const bool bt : {true, false}) {
    EXPECT_EQ(field_value(r, mean_down_field(bt)), mean_down_bps(r, bt));
    EXPECT_EQ(field_value(r, peak_down_field(bt)), peak_down_bps(r, bt));
  }
}

TEST(AnalysisCommon, PartitionKeepsOrderAndDropsOutOfRange) {
  auto a = record("US", 10, 40, 0.001, 100, 900);
  auto b = record("JP", 50, 30, 0.0004, 200, 1500);
  auto c = record("IN", 2, 700, 0.02, 20, 90);
  auto d = record("AF", 1, 50, 0.0, 10, 40);
  d.rtt_ms = std::nan("");
  const std::vector<RecordPtr> records{&a, &b, &c, &d};
  const auto bands = partition(records, stats::EdgeBins{{0.0, 35.0, 512.0}}, Field::kRttMs);
  ASSERT_EQ(bands.size(), 2u);
  EXPECT_EQ(bands[0], (std::vector<RecordPtr>{&b}));
  EXPECT_EQ(bands[1], (std::vector<RecordPtr>{&a}));  // 700 ms and NaN fall in none
  const auto by_parity = partition(records, 2, [](const dataset::UserRecord& r) {
    return static_cast<std::size_t>(r.capacity.mbps()) % 2;
  });
  EXPECT_EQ(by_parity[0], (std::vector<RecordPtr>{&a, &b, &c}));
  EXPECT_EQ(by_parity[1], (std::vector<RecordPtr>{&d}));
}

TEST(AnalysisCommon, PeakUtilization) {
  auto r = record("US", 10, 40, 0.001, 100, 2500);
  EXPECT_NEAR(r.peak_utilization(), 0.25, 1e-12);
  EXPECT_NEAR(r.peak_utilization_no_bt(), 0.20, 1e-12);
  r.capacity = Rate{};
  EXPECT_DOUBLE_EQ(r.peak_utilization(), 0.0);
}

}  // namespace
}  // namespace bblab::analysis
