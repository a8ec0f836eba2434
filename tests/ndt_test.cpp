#include "measurement/ndt.h"

#include <gtest/gtest.h>

#include "core/error.h"

namespace bblab::measurement {
namespace {

netsim::AccessLink link(double mbps, double rtt = 40.0, double loss = 0.001) {
  netsim::AccessLink l;
  l.down = Rate::from_mbps(mbps);
  l.up = Rate::from_mbps(mbps / 8);
  l.rtt_ms = rtt;
  l.loss = loss;
  return l;
}

TEST(NdtProbe, ReadsNearProvisionedCapacityOnCleanLinks) {
  const NdtProbe probe;
  Rng rng{3};
  const auto result = probe.characterize(link(10.0, 20.0, 1e-5), rng);
  EXPECT_GT(result.download.mbps(), 8.5);
  EXPECT_LE(result.download.mbps(), 10.0);
  EXPECT_GT(result.upload.mbps(), 1.0);
}

TEST(NdtProbe, UnderReadsLossyHighRttLinks) {
  const NdtProbe probe;
  Rng rng{5};
  // Satellite-grade path: measured capacity collapses below provisioned.
  const auto result = probe.characterize(link(8.0, 650.0, 0.02), rng);
  EXPECT_LT(result.download.mbps(), 4.0);
}

TEST(NdtProbe, LatencyEstimateTracksTruth) {
  const NdtProbe probe;
  Rng rng{7};
  const auto result = probe.characterize(link(10, 100.0), rng);
  EXPECT_NEAR(result.rtt_ms, 100.0, 15.0);
}

TEST(NdtProbe, LossEstimateIsUnbiasedOnAverage) {
  const NdtProbe probe;
  Rng rng{9};
  double total = 0.0;
  constexpr int kRuns = 300;
  for (int i = 0; i < kRuns; ++i) {
    total += probe.characterize(link(10, 40, 0.01), rng).loss;
  }
  EXPECT_NEAR(total / kRuns, 0.01, 0.001);
}

TEST(NdtProbe, LowLossQuantizes) {
  // A 4000-packet sample cannot resolve loss below 1/4000 per run; single
  // runs report either zero or multiples of 0.025%.
  NdtProbeParams params;
  params.repetitions = 1;
  const NdtProbe probe{params};
  Rng rng{11};
  const auto result = probe.measure_once(link(10, 40, 1e-5), rng);
  const double packets = 4000.0;
  const double quantum = 1.0 / packets;
  const double remainder = std::fmod(result.loss + 1e-12, quantum);
  EXPECT_LT(std::min(remainder, quantum - remainder), 1e-9);
}

TEST(NdtProbe, CharacterizeTakesMaxOfRuns) {
  NdtProbeParams params;
  params.repetitions = 16;
  const NdtProbe probe{params};
  Rng rng{13};
  const auto agg = probe.characterize(link(10), rng);
  Rng rng2{13};
  double max_single = 0.0;
  for (int i = 0; i < 16; ++i) {
    max_single = std::max(max_single, probe.measure_once(link(10), rng2).download.mbps());
  }
  EXPECT_DOUBLE_EQ(agg.download.mbps(), max_single);
}

TEST(NdtProbe, ValidatesInputs) {
  const NdtProbe probe;
  Rng rng{1};
  netsim::AccessLink bad = link(10);
  bad.down = Rate{};
  EXPECT_THROW((void)probe.measure_once(bad, rng), InvalidArgument);
}

}  // namespace
}  // namespace bblab::measurement
