#include "measurement/collectors.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/rng.h"

namespace bblab::measurement {
namespace {

netsim::BinnedUsage constant_truth(std::size_t bins, double bin_s, double down_rate_bps,
                                   double bt_from_bin = 1e18) {
  netsim::BinnedUsage truth;
  truth.start = 0.0;
  truth.bin_width_s = bin_s;
  truth.down_bytes.assign(bins, down_rate_bps / 8.0 * bin_s);
  truth.up_bytes.assign(bins, down_rate_bps / 80.0 * bin_s);
  truth.bt_active_s.assign(bins, 0.0);
  for (std::size_t i = 0; i < bins; ++i) {
    if (static_cast<double>(i) >= bt_from_bin) truth.bt_active_s[i] = bin_s;
  }
  return truth;
}

netsim::DiurnalModel diurnal() {
  return netsim::DiurnalModel{netsim::DiurnalParams{}, SimClock{2011}};
}

/// One sample as a collector hands it to its sink.
struct Sample {
  SimTime time{0.0};
  double interval_s{0.0};
  Rate down;
  Rate up;
  bool bt_active{false};
};

/// A sink that keeps every sample, in order.
struct Recorder {
  std::vector<Sample> samples;
  void operator()(SimTime time, double interval_s, Rate down, Rate up, bool bt_active) {
    samples.push_back(Sample{time, interval_s, down, up, bt_active});
  }
};

std::vector<Sample> record(const DasuCollector& collector,
                           const netsim::BinnedUsage& truth, Rng& rng) {
  Recorder recorder;
  collector.sample(truth, 0.0, rng, recorder);
  return recorder.samples;
}

std::vector<Sample> record(const GatewayCollector& collector,
                           const netsim::BinnedUsage& truth) {
  Recorder recorder;
  collector.sample(truth, recorder);
  return recorder.samples;
}

TEST(DasuCollector, ReconstructsConstantRate) {
  DasuCollectorParams params;
  params.availability_floor = 1.0;  // always observing
  params.sample_loss = 0.0;
  const DasuCollector collector{params, diurnal()};
  Rng rng{3};
  const auto truth = constant_truth(2880, 30.0, 2e6);  // 1 day at 2 Mbps
  const auto series = record(collector, truth, rng);
  ASSERT_EQ(series.size(), 2880u);
  for (const auto& s : series) {
    EXPECT_NEAR(s.down.mbps(), 2.0, 0.01);
    EXPECT_FALSE(s.bt_active);
  }
}

TEST(DasuCollector, MissedSamplesFoldIntoLongerIntervals) {
  DasuCollectorParams params;
  params.availability_floor = 0.3;
  params.sample_loss = 0.1;
  const DasuCollector collector{params, diurnal()};
  Rng rng{5};
  const auto truth = constant_truth(2880, 30.0, 2e6);
  const auto series = record(collector, truth, rng);
  ASSERT_GT(series.size(), 100u);
  ASSERT_LT(series.size(), 2880u);
  double covered = 0.0;
  for (const auto& s : series) {
    covered += s.interval_s;
    // Rate over any gap still reconstructs the constant rate exactly.
    EXPECT_NEAR(s.down.mbps(), 2.0, 0.01);
  }
  EXPECT_LE(covered, 2880 * 30.0 + 1e-6);
}

TEST(DasuCollector, PeakHourBiasInSampling) {
  DasuCollectorParams params;
  params.availability_floor = 0.1;
  params.sample_loss = 0.0;
  const DasuCollector collector{params, diurnal()};
  Rng rng{7};
  const auto truth = constant_truth(2880 * 7, 30.0, 1e6);  // one week
  const auto series = record(collector, truth, rng);
  std::size_t evening = 0;
  std::size_t morning = 0;
  for (const auto& s : series) {
    const double hour = SimClock::hour_of_day(s.time);
    if (hour >= 19 && hour < 23) ++evening;
    if (hour >= 5 && hour < 9) ++morning;
  }
  EXPECT_GT(evening, morning * 2);
}

TEST(DasuCollector, CountersSurviveWrap) {
  DasuCollectorParams params;
  params.availability_floor = 1.0;
  params.sample_loss = 0.0;
  params.upnp_share = 1.0;  // force the 32-bit wrapping counter
  const DasuCollector collector{params, diurnal()};
  Rng rng{9};
  // 50 Mbps for a day: ~540 GB, dozens of 32-bit wraps.
  const auto truth = constant_truth(2880, 30.0, 50e6);
  const auto series = record(collector, truth, rng);
  for (const auto& s : series) {
    EXPECT_NEAR(s.down.mbps(), 50.0, 0.5);
  }
}

TEST(DasuCollector, FlagsBitTorrentPeriods) {
  DasuCollectorParams params;
  params.availability_floor = 1.0;
  params.sample_loss = 0.0;
  const DasuCollector collector{params, diurnal()};
  Rng rng{11};
  const auto truth = constant_truth(100, 30.0, 1e6, /*bt_from_bin=*/50);
  const auto series = record(collector, truth, rng);
  ASSERT_EQ(series.size(), 100u);
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(series[i].bt_active, i >= 50) << i;
  }
}

TEST(DasuCollector, TotalSampleLossYieldsEmptySeries) {
  DasuCollectorParams params;
  params.availability_floor = 1.0;
  params.sample_loss = 1.0;  // host is up but every poll is dropped
  const DasuCollector collector{params, diurnal()};
  Rng rng{13};
  const auto series = record(collector, constant_truth(100, 30.0, 1e6), rng);
  EXPECT_EQ(series.size(), 0u);
}

TEST(DasuCollector, ZeroAvailabilityFloorFollowsDiurnalOnly) {
  DasuCollectorParams params;
  params.availability_floor = 0.0;  // availability is pure diurnal activity
  params.sample_loss = 0.0;
  const DasuCollector collector{params, diurnal()};
  Rng rng{15};
  const auto truth = constant_truth(2880 * 7, 30.0, 1e6);  // one week
  const auto series = record(collector, truth, rng);
  ASSERT_GT(series.size(), 0u);
  ASSERT_LT(series.size(), truth.bins());
  // Sparse sampling must not distort the reconstructed rate.
  for (const auto& s : series) {
    EXPECT_NEAR(s.down.mbps(), 1.0, 0.01);
  }
}

TEST(GatewayCollector, AggregatesHourly) {
  const GatewayCollector collector;
  const auto truth = constant_truth(2880, 30.0, 4e6);  // 1 day at 4 Mbps
  const auto series = record(collector, truth);
  ASSERT_EQ(series.size(), 24u);
  for (const auto& s : series) {
    EXPECT_NEAR(s.down.mbps(), 4.0, 1e-9);
    EXPECT_DOUBLE_EQ(s.interval_s, 3600.0);
    EXPECT_FALSE(s.bt_active);  // gateways cannot see applications
  }
}

TEST(GatewayCollector, HandlesPartialTrailingWindow) {
  const GatewayCollector collector;
  const auto truth = constant_truth(130, 30.0, 4e6);  // 65 minutes
  const auto series = record(collector, truth);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].interval_s, 3600.0);
  EXPECT_DOUBLE_EQ(series[1].interval_s, 300.0);
  EXPECT_NEAR(series[1].down.mbps(), 4.0, 1e-9);
}

TEST(GatewayCollector, ZeroBinWindowYieldsEmptySeries) {
  const GatewayCollector collector;
  netsim::BinnedUsage truth;
  truth.start = 0.0;
  truth.bin_width_s = 30.0;
  const auto series = record(collector, truth);
  EXPECT_EQ(series.size(), 0u);
}

TEST(GatewayCollector, ConservesBytes) {
  const GatewayCollector collector;
  const auto truth = constant_truth(1000, 30.0, 3.3e6);
  const auto series = record(collector, truth);
  const double truth_total =
      std::accumulate(truth.down_bytes.begin(), truth.down_bytes.end(), 0.0);
  double series_total = 0.0;
  for (const auto& s : series) {
    series_total += s.down.bytes_per_sec() * s.interval_s;
  }
  EXPECT_NEAR(series_total, truth_total, 1.0);
}

}  // namespace
}  // namespace bblab::measurement
