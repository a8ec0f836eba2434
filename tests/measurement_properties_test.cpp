// Cross-cutting measurement-layer properties: the instruments must be
// faithful enough for the analysis (byte conservation through collectors,
// NDT monotonicity in link quality, counter integrity under stress).
#include <gtest/gtest.h>

#include <numeric>

#include "core/rng.h"
#include "measurement/collectors.h"
#include "measurement/ndt.h"
#include "measurement/usage.h"
#include "netsim/fluid.h"
#include "netsim/workload.h"

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

netsim::BinnedUsage simulate_day(const netsim::AccessLink& l, std::uint64_t seed,
                                 double bt_per_day = 1.0) {
  const SimClock clock{2011};
  const netsim::DiurnalModel diurnal{netsim::DiurnalParams{}, clock};
  const netsim::WorkloadGenerator gen{diurnal};
  netsim::WorkloadParams params;
  params.bt_sessions_per_day = bt_per_day;
  Rng rng{seed};
  const auto flows = gen.generate(params, l, 0.0, kDay, rng);
  const netsim::FluidLinkSimulator sim{l};
  return sim.run(flows, 0.0, 2880, 30.0);
}

/// A sink that adds up the down bytes a collector's samples account for.
struct DownBytes {
  double total{0.0};
  std::size_t samples{0};
  void operator()(SimTime, double interval_s, Rate down, Rate, bool) {
    total += down.bytes_per_sec() * interval_s;
    ++samples;
  }
};

class CollectorFidelity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CollectorFidelity, DasuSeriesConservesBytesOverCoveredIntervals) {
  const auto truth = simulate_day(link(12), GetParam());
  DasuCollectorParams params;
  params.availability_floor = 1.0;  // full coverage: exact conservation
  params.sample_loss = 0.0;
  const SimClock clock{2011};
  const DasuCollector collector{params, netsim::DiurnalModel{netsim::DiurnalParams{}, clock}};
  Rng rng{GetParam() + 99};
  DownBytes series;
  collector.sample(truth, 0.0, rng, series);

  const double truth_total =
      std::accumulate(truth.down_bytes.begin(), truth.down_bytes.end(), 0.0);
  // Counter quantization rounds each reading to whole bytes.
  EXPECT_NEAR(series.total, truth_total, static_cast<double>(series.samples) + 10.0);
}

TEST_P(CollectorFidelity, GatewayAndDasuAgreeOnTotals) {
  const auto truth = simulate_day(link(20), GetParam());
  const GatewayCollector gateway;
  DownBytes hourly;
  gateway.sample(truth, hourly);

  DasuCollectorParams params;
  params.availability_floor = 1.0;
  params.sample_loss = 0.0;
  const SimClock clock{2011};
  const DasuCollector dasu{params, netsim::DiurnalModel{netsim::DiurnalParams{}, clock}};
  Rng rng{GetParam()};
  DownBytes fine;
  dasu.sample(truth, 0.0, rng, fine);
  EXPECT_NEAR(hourly.total, fine.total, hourly.total * 0.001 + 5000.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollectorFidelity, ::testing::Values(1, 2, 3, 4, 5));

TEST(NdtMonotonicity, MeasuredCapacityFallsWithWorseQuality) {
  const NdtProbe probe;
  double prev = 1e18;
  for (const auto& [rtt, loss] :
       {std::pair{30.0, 0.0005}, std::pair{120.0, 0.003}, std::pair{400.0, 0.01},
        std::pair{800.0, 0.05}}) {
    Rng rng{42};
    const auto result = probe.characterize(link(50, rtt, loss), rng);
    EXPECT_LT(result.download.bps(), prev * 1.001) << rtt << "/" << loss;
    prev = result.download.bps();
  }
}

TEST(NdtMonotonicity, LatencyEstimatesOrderCorrectly) {
  const NdtProbe probe;
  Rng rng{7};
  const auto fast = probe.characterize(link(10, 25), rng);
  const auto slow = probe.characterize(link(10, 400), rng);
  EXPECT_LT(fast.rtt_ms, slow.rtt_ms);
}

TEST(BtFlagConsistency, CollectorsFlagExactlyTheBtWindows) {
  // A truth series with BT activity only in its second half must yield
  // Dasu samples flagged only there — and the no-BT summary must exclude
  // the BT-heavy rates.
  auto truth = simulate_day(link(8), 3, /*bt_per_day=*/0.0);
  const std::size_t half = truth.bins() / 2;
  for (std::size_t i = half; i < truth.bins(); ++i) {
    truth.bt_active_s[i] = truth.bin_width_s;
    truth.down_bytes[i] += 8e6 / 8.0 * truth.bin_width_s;  // BT at 8 Mbps
  }
  DasuCollectorParams params;
  params.availability_floor = 1.0;
  params.sample_loss = 0.0;
  const SimClock clock{2011};
  const DasuCollector collector{params, netsim::DiurnalModel{netsim::DiurnalParams{}, clock}};
  Rng rng{11};
  SummaryColumns columns;
  collector.sample(truth, 0.0, rng,
                   [&](SimTime, double, Rate down, Rate up, bool bt_active) {
                     columns.add(down, up, bt_active);
                   });
  const auto summary = summarize(columns);
  EXPECT_NEAR(summary.bt_share(), 0.5, 0.01);
  EXPECT_LT(summary.mean_down_no_bt.bps(), summary.mean_down.bps());
  EXPECT_LT(summary.peak_down_no_bt.bps(), summary.peak_down.bps());
}

}  // namespace
}  // namespace bblab::measurement
