#include "netsim/fluid.h"

#include <gtest/gtest.h>

#include <numeric>

#include "core/error.h"
#include "core/rng.h"

namespace bblab::netsim {
namespace {

AccessLink clean_link(double down_mbps = 10.0) {
  AccessLink l;
  l.down = Rate::from_mbps(down_mbps);
  l.up = Rate::from_mbps(down_mbps / 10);
  l.rtt_ms = 20.0;
  l.loss = 0.0;
  return l;
}

double total(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(WaterFill, FairShareWhenUncapped) {
  const std::vector<double> caps{1e9, 1e9, 1e9};
  const auto rates = water_fill(9e6, caps);
  for (const double r : rates) EXPECT_NEAR(r, 3e6, 1.0);
}

TEST(WaterFill, CapsRespectedAndSurplusRedistributed) {
  const std::vector<double> caps{1e6, 1e9};
  const auto rates = water_fill(10e6, caps);
  EXPECT_NEAR(rates[0], 1e6, 1.0);
  EXPECT_NEAR(rates[1], 9e6, 1.0);
}

TEST(WaterFill, UndersubscribedGivesEveryoneTheirCap) {
  const std::vector<double> caps{1e6, 2e6, 3e6};
  const auto rates = water_fill(100e6, caps);
  EXPECT_NEAR(rates[0], 1e6, 1.0);
  EXPECT_NEAR(rates[1], 2e6, 1.0);
  EXPECT_NEAR(rates[2], 3e6, 1.0);
}

TEST(WaterFill, NeverExceedsCapacity) {
  const std::vector<double> caps{5e6, 5e6, 5e6, 5e6};
  const auto rates = water_fill(7e6, caps);
  EXPECT_LE(total(rates), 7e6 * (1 + 1e-9));
}

TEST(WaterFill, EmptyAndZeroCapacity) {
  EXPECT_TRUE(water_fill(1e6, std::vector<double>{}).empty());
  const auto rates = water_fill(0.0, std::vector<double>{1e6});
  EXPECT_DOUBLE_EQ(rates[0], 0.0);
}

// Randomized water-fill invariants: feasibility (sum <= capacity),
// cap respect, max-min fairness (no flow sits below its cap while another
// gets more than it), and permutation invariance of the input order.
class WaterFillProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WaterFillProperty, InvariantsHold) {
  Rng rng{GetParam()};
  for (int iter = 0; iter < 50; ++iter) {
    const double capacity = rng.uniform(1e5, 1e8);
    const auto n = 1 + rng.index(40);
    std::vector<double> caps(n);
    for (auto& c : caps) c = rng.uniform(1e3, 2e8);

    const auto rates = water_fill(capacity, caps);
    ASSERT_EQ(rates.size(), n);
    const double tol = capacity * 1e-9;
    EXPECT_LE(total(rates), capacity + tol);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_GE(rates[i], 0.0);
      EXPECT_LE(rates[i], caps[i] + 1e-9);
      // Max-min: a flow throttled below its cap is only ever throttled to
      // the waterline — no other flow may exceed its rate.
      if (rates[i] < caps[i] - tol) {
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_LE(rates[j], rates[i] + tol)
              << "flow " << j << " above the waterline of unsatisfied flow " << i;
        }
      }
    }
  }
}

TEST_P(WaterFillProperty, PermutationInvariant) {
  Rng rng{GetParam() ^ 0xC0FFEE};
  for (int iter = 0; iter < 50; ++iter) {
    const double capacity = rng.uniform(1e5, 1e8);
    const auto n = 2 + rng.index(30);
    std::vector<double> caps(n);
    for (auto& c : caps) c = rng.uniform(1e3, 2e8);  // a.s. distinct

    const auto rates = water_fill(capacity, caps);
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    for (std::size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.index(i)]);
    std::vector<double> shuffled(n);
    for (std::size_t i = 0; i < n; ++i) shuffled[i] = caps[perm[i]];

    const auto shuffled_rates = water_fill(capacity, shuffled);
    for (std::size_t i = 0; i < n; ++i) {
      // With distinct caps the processing order is identical, so each
      // flow's rate follows it through the permutation bit-for-bit.
      EXPECT_DOUBLE_EQ(shuffled_rates[i], rates[perm[i]]) << "slot " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaterFillProperty,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

TEST(FluidSim, SingleVolumeFlowTransfersExactly) {
  const FluidLinkSimulator sim{clean_link(8.0)};  // 1 MB/s
  Flow f;
  f.start = 10.0;
  f.app = AppKind::kBulk;
  f.volume_bytes = 5e6;  // 5 seconds at line rate (bulk cap is ~4x tcp > link)
  const auto usage = sim.run(std::vector<Flow>{f}, 0.0, 10, 30.0);
  EXPECT_NEAR(total(usage.down_bytes), 5e6, 1e3);
  // All of it lands in the first bin (seconds 10-15).
  EXPECT_NEAR(usage.down_bytes[0], 5e6, 1e3);
  EXPECT_NEAR(total(usage.up_bytes), 0.0, 1.0);
}

TEST(FluidSim, DurationFlowRespectsRateCap) {
  const FluidLinkSimulator sim{clean_link(10.0)};
  Flow f;
  f.start = 0.0;
  f.app = AppKind::kVideo;
  f.duration_s = 300.0;
  f.rate_cap = Rate::from_mbps(2.0);
  const auto usage = sim.run(std::vector<Flow>{f}, 0.0, 10, 30.0);
  // 2 Mbps for 300 s = 600 Mbit = 75 MB total.
  EXPECT_NEAR(total(usage.down_bytes), 75e6, 1e4);
  for (std::size_t i = 0; i < usage.bins(); ++i) {
    EXPECT_NEAR(usage.down_rate(i).mbps(), 2.0, 0.01) << "bin " << i;
  }
}

TEST(FluidSim, ConcurrentFlowsShareTheLink) {
  const FluidLinkSimulator sim{clean_link(10.0)};
  std::vector<Flow> flows;
  for (int i = 0; i < 2; ++i) {
    Flow f;
    f.start = 0.0;
    f.app = AppKind::kVideo;
    f.duration_s = 60.0;
    f.rate_cap = Rate::from_mbps(8.0);  // each wants 8, link has 10
    flows.push_back(f);
  }
  const auto usage = sim.run(flows, 0.0, 2, 30.0);
  // Fair share 5+5 = link rate.
  EXPECT_NEAR(usage.down_rate(0).mbps(), 10.0, 0.05);
}

TEST(FluidSim, SharingDelaysVolumeCompletion) {
  const FluidLinkSimulator sim{clean_link(8.0)};  // 1 MB/s
  Flow bulk;
  bulk.start = 0.0;
  bulk.app = AppKind::kBulk;
  bulk.volume_bytes = 3e6;
  Flow video = bulk;
  video.app = AppKind::kVideo;
  video.volume_bytes = 0.0;
  video.duration_s = 600.0;
  video.rate_cap = Rate::from_mbps(4.0);  // takes half the link
  const auto usage = sim.run(std::vector<Flow>{bulk, video}, 0.0, 20, 30.0);
  // Fair share gives each 4 Mbps; the bulk's 3 MB takes 6 s instead of 3.
  // Bin 0 therefore holds 6 s at 8 Mbps + 24 s at 4 Mbps = 4.8 Mbps avg.
  EXPECT_GT(total(usage.down_bytes), 3e6);
  EXPECT_NEAR(usage.down_rate(0).mbps(), 4.8, 0.05);
}

TEST(FluidSim, BitTorrentMarksActivity) {
  const FluidLinkSimulator sim{clean_link(10.0)};
  Flow bt;
  bt.start = 35.0;
  bt.app = AppKind::kBitTorrent;
  bt.direction = Direction::kUp;
  bt.duration_s = 30.0;
  bt.rate_cap = Rate::from_kbps(500);
  const auto usage = sim.run(std::vector<Flow>{bt}, 0.0, 4, 30.0);
  EXPECT_FALSE(usage.bt_active(0));
  EXPECT_TRUE(usage.bt_active(1));
  EXPECT_TRUE(usage.bt_active(2));
  EXPECT_FALSE(usage.bt_active(3));
  EXPECT_NEAR(usage.bt_active_s[1], 25.0, 0.1);
  EXPECT_NEAR(usage.bt_active_s[2], 5.0, 0.1);
}

TEST(FluidSim, FlowsOutsideWindowAreClipped) {
  const FluidLinkSimulator sim{clean_link(10.0)};
  Flow before;
  before.start = -1000.0;
  before.app = AppKind::kVideo;
  before.duration_s = 100.0;  // ends before the window
  before.rate_cap = Rate::from_mbps(1.0);
  Flow spanning;
  spanning.start = 25.0;
  spanning.app = AppKind::kVideo;
  spanning.duration_s = 1e6;  // runs past the window end
  spanning.rate_cap = Rate::from_mbps(1.0);
  const auto usage =
      sim.run(std::vector<Flow>{before, spanning}, 0.0, 2, 30.0);
  // Only the spanning flow contributes, from t=25 to t=60: 35 s at 1 Mbps.
  EXPECT_NEAR(total(usage.down_bytes), 35.0 * 1e6 / 8.0, 1e3);
}

TEST(FluidSim, LossyLinkThrottlesSingleConnectionApps) {
  AccessLink lossy = clean_link(50.0);
  lossy.rtt_ms = 200.0;
  lossy.loss = 0.02;
  const FluidLinkSimulator sim{lossy};
  Flow f;
  f.start = 0.0;
  f.app = AppKind::kBackground;  // single connection
  f.duration_s = 60.0;
  const auto usage = sim.run(std::vector<Flow>{f}, 0.0, 2, 30.0);
  // Mathis at 200ms/2%: ~0.5 Mbps << 50 Mbps.
  EXPECT_LT(usage.down_rate(0).mbps(), 1.0);
}

TEST(FluidSim, RequiresSortedFlowsInDebugBuilds) {
#ifdef NDEBUG
  GTEST_SKIP() << "sorted-flows precondition scan is compiled out of release builds";
#else
  const FluidLinkSimulator sim{clean_link()};
  Flow a;
  a.start = 100.0;
  Flow b;
  b.start = 50.0;
  EXPECT_THROW(sim.run(std::vector<Flow>{a, b}, 0.0, 2, 30.0), InvalidArgument);
#endif
}

TEST(FluidSim, EmptyFlowsGiveSilentBins) {
  const FluidLinkSimulator sim{clean_link()};
  const auto usage = sim.run(std::vector<Flow>{}, 0.0, 5, 30.0);
  EXPECT_EQ(usage.bins(), 5u);
  EXPECT_DOUBLE_EQ(total(usage.down_bytes), 0.0);
}

TEST(FluidSim, ConservationAcrossBinBoundaries) {
  // A constant-rate flow spanning many bins must put the same bytes in
  // every interior bin.
  const FluidLinkSimulator sim{clean_link(10.0)};
  Flow f;
  f.start = 0.0;
  f.app = AppKind::kVoip;
  f.duration_s = 300.0;
  f.rate_cap = Rate::from_kbps(100);
  const auto usage = sim.run(std::vector<Flow>{f}, 0.0, 10, 30.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(usage.down_bytes[static_cast<std::size_t>(i)], 100e3 / 8 * 30,
                10.0)
        << "bin " << i;
  }
}

TEST(FluidSim, ExpiredDurationFlowContributesNothing) {
  // Regression: a duration-bound session that ended before the window
  // start used to be admitted to the active set anyway, where it stole
  // water-fill share from live flows until its (past) end event fired.
  const FluidLinkSimulator sim{clean_link(8.0)};  // 1 MB/s
  Flow live;
  live.start = 1000.0;
  live.app = AppKind::kBulk;
  live.volume_bytes = 5e6;
  Flow expired;
  expired.start = 0.0;
  expired.app = AppKind::kVideo;
  expired.duration_s = 100.0;  // ended at t=100, window starts at t=1000
  expired.rate_cap = Rate::from_mbps(4.0);

  const auto alone = sim.run(std::vector<Flow>{live}, 1000.0, 10, 30.0);
  const auto mixed = sim.run(std::vector<Flow>{expired, live}, 1000.0, 10, 30.0);
  // The dead session adds no bytes and must not slow the live transfer:
  // every bin is bit-identical to the live-flow-alone run.
  ASSERT_EQ(mixed.bins(), alone.bins());
  for (std::size_t i = 0; i < alone.bins(); ++i) {
    EXPECT_DOUBLE_EQ(mixed.down_bytes[i], alone.down_bytes[i]) << i;
  }
  EXPECT_NEAR(total(mixed.down_bytes), 5e6, 1e3);
}

TEST(FluidSim, SegmentsOnExactBinBoundaries) {
  // A constant-rate session whose start, end, and every interior segment
  // land exactly on bin boundaries: each covered bin gets exactly
  // rate * bin_width bytes, untouched bins get exactly zero.
  const FluidLinkSimulator sim{clean_link(10.0)};
  Flow f;
  f.start = 30.0;  // exactly bin 1's left edge
  f.app = AppKind::kVoip;
  f.duration_s = 60.0;  // ends exactly at bin 3's left edge
  f.rate_cap = Rate::from_kbps(100);
  const auto usage = sim.run(std::vector<Flow>{f}, 0.0, 4, 30.0);
  const double per_bin = 100e3 / 8.0 * 30.0;  // exactly representable
  EXPECT_DOUBLE_EQ(usage.down_bytes[0], 0.0);
  EXPECT_DOUBLE_EQ(usage.down_bytes[1], per_bin);
  EXPECT_DOUBLE_EQ(usage.down_bytes[2], per_bin);
  EXPECT_DOUBLE_EQ(usage.down_bytes[3], 0.0);
}

TEST(FluidSim, SegmentEndingExactlyAtWindowEnd) {
  // The final segment's end coincides with both the last bin boundary and
  // the window end — the bin cursor must not run past the bin arrays.
  const FluidLinkSimulator sim{clean_link(10.0)};
  Flow f;
  f.start = 0.0;
  f.app = AppKind::kVoip;
  f.duration_s = 1000.0;  // clipped at the 90 s window end
  f.rate_cap = Rate::from_kbps(100);
  const auto usage = sim.run(std::vector<Flow>{f}, 0.0, 3, 30.0);
  const double per_bin = 100e3 / 8.0 * 30.0;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(usage.down_bytes[i], per_bin) << "bin " << i;
  }
}

TEST(FluidSim, WorkspaceReuseMatchesFreshRuns) {
  // One workspace across many runs (different links, windows, flow sets)
  // must leave no state behind: every reused-run output is bit-identical
  // to a fresh-workspace run.
  Rng rng{99};
  FluidWorkspace ws;
  for (int iter = 0; iter < 20; ++iter) {
    const FluidLinkSimulator sim{clean_link(rng.uniform(2.0, 40.0))};
    std::vector<Flow> flows;
    const auto n = 1 + rng.index(12);
    for (std::size_t i = 0; i < n; ++i) {
      Flow f;
      f.start = rng.uniform(0.0, 120.0);
      f.app = rng.bernoulli(0.3) ? AppKind::kBitTorrent : AppKind::kBulk;
      if (rng.bernoulli(0.5)) {
        f.volume_bytes = rng.uniform(1e5, 1e7);
      } else {
        f.duration_s = rng.uniform(10.0, 300.0);
        f.rate_cap = Rate::from_mbps(rng.uniform(0.3, 6.0));
      }
      if (rng.bernoulli(0.3)) f.direction = Direction::kUp;
      flows.push_back(f);
    }
    std::sort(flows.begin(), flows.end(),
              [](const Flow& a, const Flow& b) { return a.start < b.start; });
    const auto reused = sim.run(flows, 0.0, 10, 30.0, ws);
    const auto fresh = sim.run(flows, 0.0, 10, 30.0);
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_DOUBLE_EQ(reused.down_bytes[i], fresh.down_bytes[i]) << i;
      EXPECT_DOUBLE_EQ(reused.up_bytes[i], fresh.up_bytes[i]) << i;
      EXPECT_DOUBLE_EQ(reused.bt_active_s[i], fresh.bt_active_s[i]) << i;
    }
  }
}

// Property sweep: byte conservation — with a window long enough for every
// transfer to finish, the binned totals must equal the offered volumes
// exactly, regardless of how flows overlapped and shared the link.
class FluidConservationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FluidConservationProperty, VolumesAreConservedExactly) {
  Rng rng{GetParam()};
  const double capacity_mbps = rng.uniform(1.0, 50.0);
  const FluidLinkSimulator sim{clean_link(capacity_mbps)};

  std::vector<Flow> flows;
  double offered = 0.0;
  const auto n = 5 + rng.index(60);
  for (std::size_t i = 0; i < n; ++i) {
    Flow f;
    f.start = rng.uniform(0.0, 600.0);
    f.app = rng.bernoulli(0.5) ? AppKind::kWeb : AppKind::kBulk;
    f.volume_bytes = rng.uniform(1e5, 5e6);
    offered += f.volume_bytes;
    flows.push_back(f);
  }
  std::sort(flows.begin(), flows.end(),
            [](const Flow& a, const Flow& b) { return a.start < b.start; });

  // Window: generous upper bound on total drain time.
  const double drain_s =
      600.0 + offered / (capacity_mbps * 1e6 / 8.0) * 4.0 + 300.0;
  const auto bins = static_cast<std::size_t>(drain_s / 30.0) + 2;
  const auto usage = sim.run(flows, 0.0, bins, 30.0);
  EXPECT_NEAR(total(usage.down_bytes), offered, offered * 1e-6 + 10.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidConservationProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace bblab::netsim
