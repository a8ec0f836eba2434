#include "netsim/tcp_model.h"

#include <gtest/gtest.h>

#include "core/error.h"

namespace bblab::netsim {
namespace {

AccessLink link(double down_mbps, double rtt_ms, double loss) {
  AccessLink l;
  l.down = Rate::from_mbps(down_mbps);
  l.up = Rate::from_mbps(down_mbps / 8);
  l.rtt_ms = rtt_ms;
  l.loss = loss;
  return l;
}

TEST(TcpModel, CleanShortPathIsCapacityLimited) {
  const TcpModel tcp;
  EXPECT_NEAR(tcp.steady_throughput(link(10, 20, 0.0)).mbps(), 10.0, 1e-9);
  EXPECT_NEAR(tcp.steady_throughput(link(100, 10, 1e-6)).mbps(), 100.0, 1e-6);
}

TEST(TcpModel, LossLimitsThroughput) {
  const TcpModel tcp;
  // Mathis: 1460B / 0.1s * 1.2247 / sqrt(0.01) = ~179 kB/s = ~1.43 Mbps.
  const Rate r = tcp.steady_throughput(link(100, 100, 0.01));
  EXPECT_NEAR(r.mbps(), 1.43, 0.05);
}

TEST(TcpModel, ThroughputMonotoneInLossAndRtt) {
  const TcpModel tcp;
  double prev = 1e18;
  for (const double loss : {1e-5, 1e-4, 1e-3, 1e-2, 1e-1}) {
    const double bps = tcp.steady_throughput(link(1000, 80, loss)).bps();
    EXPECT_LE(bps, prev) << "loss=" << loss;
    prev = bps;
  }
  prev = 1e18;
  for (const double rtt : {10.0, 50.0, 100.0, 500.0, 1000.0}) {
    const double bps = tcp.steady_throughput(link(1000, rtt, 0.001)).bps();
    EXPECT_LT(bps, prev) << "rtt=" << rtt;
    prev = bps;
  }
}

TEST(TcpModel, WindowBoundCapsCleanLongPaths) {
  const TcpModel tcp;
  // 512 KiB window over 600 ms: ~7 Mbps regardless of capacity.
  const Rate r = tcp.steady_throughput(link(1000, 600, 0.0));
  EXPECT_NEAR(r.mbps(), 512.0 * 1024.0 * 8.0 / 0.6 / 1e6, 0.1);
}

TEST(TcpModel, SatelliteLinkIsCrippled) {
  const TcpModel tcp;
  // 650 ms RTT, 2% loss: the §7 regime. Single connection far below 8 Mbps.
  const Rate r = tcp.steady_throughput(link(8, 650, 0.02));
  EXPECT_LT(r.mbps(), 1.0);
}

TEST(TcpModel, ShortTransfersSlowerThanSteadyState) {
  const TcpModel tcp;
  const AccessLink l = link(50, 100, 1e-4);
  const Rate steady = tcp.steady_throughput(l);
  const Rate small = tcp.transfer_throughput(l, 50e3);   // 50 kB page object
  const Rate large = tcp.transfer_throughput(l, 100e6);  // 100 MB download
  EXPECT_LT(small.bps(), steady.bps());
  EXPECT_LT(small.bps(), large.bps());
  EXPECT_LE(large.bps(), steady.bps() * 1.001);
}

TEST(TcpModel, ParallelConnectionsScaleUntilCapacity) {
  const TcpModel tcp;
  const AccessLink lossy = link(100, 100, 0.01);
  const double one = tcp.parallel_throughput(lossy, 1).mbps();
  const double four = tcp.parallel_throughput(lossy, 4).mbps();
  const double many = tcp.parallel_throughput(lossy, 1000).mbps();
  EXPECT_NEAR(four, 4.0 * one, 0.01);
  EXPECT_NEAR(many, 100.0, 1e-6);  // clamped at capacity
}

TEST(TcpModel, ValidatesInputs) {
  const TcpModel tcp;
  AccessLink bad = link(10, 50, 0.001);
  bad.rtt_ms = 0.0;
  EXPECT_THROW((void)tcp.steady_throughput(bad), InvalidArgument);
  EXPECT_THROW((void)tcp.parallel_throughput(link(10, 50, 0), 0), InvalidArgument);
  EXPECT_THROW((void)tcp.transfer_throughput(link(10, 50, 0), -1.0), InvalidArgument);
}

// Property sweep: throughput never exceeds capacity for any quality.
class TcpBoundProperty
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(TcpBoundProperty, NeverExceedsCapacity) {
  const auto [mbps, rtt, loss] = GetParam();
  const TcpModel tcp;
  const AccessLink l = link(mbps, rtt, loss);
  EXPECT_LE(tcp.steady_throughput(l).bps(), l.down.bps() * (1 + 1e-9));
  EXPECT_LE(tcp.parallel_throughput(l, 16).bps(), l.down.bps() * (1 + 1e-9));
  EXPECT_LE(tcp.transfer_throughput(l, 1e6).bps(), l.down.bps() * (1 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TcpBoundProperty,
    ::testing::Combine(::testing::Values(0.25, 1.0, 10.0, 100.0),
                       ::testing::Values(10.0, 100.0, 650.0),
                       ::testing::Values(0.0, 0.001, 0.05)));

}  // namespace
}  // namespace bblab::netsim
