#include "measurement/usage.h"

#include <gtest/gtest.h>

#include "core/rng.h"

namespace bblab::measurement {
namespace {

/// Append one sample: `down_kbps` down, a tenth of it up.
void add(SummaryColumns& columns, double down_kbps, bool bt = false) {
  columns.add(Rate::from_kbps(down_kbps), Rate::from_kbps(down_kbps / 10), bt);
}

TEST(Summarize, EmptySeries) {
  SummaryColumns columns;
  const auto s = summarize(columns);
  EXPECT_EQ(s.samples, 0u);
  EXPECT_DOUBLE_EQ(s.mean_down.bps(), 0.0);
  EXPECT_DOUBLE_EQ(s.bt_share(), 0.0);
}

TEST(Summarize, MeanAndPeak) {
  SummaryColumns columns;
  for (int i = 1; i <= 100; ++i) {
    add(columns, static_cast<double>(i));
  }
  const auto s = summarize(columns);
  EXPECT_EQ(s.samples, 100u);
  EXPECT_NEAR(s.mean_down.kbps(), 50.5, 1e-9);
  // p95 of 1..100 with type-7 interpolation: 95.05.
  EXPECT_NEAR(s.peak_down.kbps(), 95.05, 1e-6);
  EXPECT_NEAR(s.mean_up.kbps(), 5.05, 1e-9);
}

TEST(Summarize, BtFilteringSeparatesPopulations) {
  SummaryColumns columns;
  // 50 quiet non-BT samples at 10 kbps, 50 BT samples at 1000 kbps.
  for (int i = 0; i < 50; ++i) add(columns, 10.0, false);
  for (int i = 0; i < 50; ++i) add(columns, 1000.0, true);
  const auto s = summarize(columns);
  EXPECT_EQ(s.samples_no_bt, 50u);
  EXPECT_NEAR(s.bt_share(), 0.5, 1e-12);
  EXPECT_NEAR(s.mean_down.kbps(), 505.0, 1e-9);
  EXPECT_NEAR(s.mean_down_no_bt.kbps(), 10.0, 1e-9);
  EXPECT_LT(s.peak_down_no_bt.kbps(), s.peak_down.kbps());
}

TEST(Summarize, AllBtLeavesNoBtZero) {
  SummaryColumns columns;
  for (int i = 0; i < 10; ++i) add(columns, 100.0, true);
  const auto s = summarize(columns);
  EXPECT_EQ(s.samples_no_bt, 0u);
  EXPECT_DOUBLE_EQ(s.mean_down_no_bt.bps(), 0.0);
  EXPECT_DOUBLE_EQ(s.bt_share(), 1.0);
}

TEST(Summarize, PeakAtLeastMean) {
  SummaryColumns columns;
  Rng rng{3};
  for (int i = 0; i < 500; ++i) {
    add(columns, rng.lognormal(3.0, 1.5));
  }
  const auto s = summarize(columns);
  EXPECT_GE(s.peak_down.bps(), s.mean_down.bps());
  EXPECT_GE(s.peak_up.bps(), s.mean_up.bps());
}

}  // namespace
}  // namespace bblab::measurement
