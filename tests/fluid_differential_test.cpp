// Differential property test: the zero-allocation incremental fluid
// engine must be BYTE-EXACT against the recompute-everything reference
// engine (FluidLinkSimulator::run_reference) on randomized workloads. This
// is the contract that lets the bbstore cache keep its fingerprints and
// the parallel pipeline its thread-count determinism across the
// optimization: not "close", identical down to the last bit of every bin.
#include "netsim/fluid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/rng.h"
#include "netsim/workload.h"

namespace bblab::netsim {
namespace {

AccessLink random_link(Rng& rng) {
  AccessLink l;
  l.down = Rate::from_mbps(rng.uniform(1.0, 100.0));
  l.up = Rate::from_mbps(rng.uniform(0.3, 12.0));
  l.rtt_ms = rng.uniform(5.0, 400.0);
  l.loss = rng.bernoulli(0.3) ? rng.uniform(0.0, 0.03) : 0.001;
  return l;
}

std::vector<Flow> random_flows(Rng& rng, SimTime window_start, double window_s) {
  constexpr AppKind kApps[] = {AppKind::kWeb,  AppKind::kVideo,
                               AppKind::kBulk, AppKind::kBitTorrent,
                               AppKind::kVoip, AppKind::kBackground};
  std::vector<Flow> flows;
  const auto n = 1 + rng.index(80);
  for (std::size_t i = 0; i < n; ++i) {
    Flow f;
    // Starts may fall before the window (clipped / already-expired flows)
    // and after it (never admitted).
    f.start = window_start + rng.uniform(-0.3 * window_s, 1.1 * window_s);
    f.app = kApps[rng.index(6)];
    f.direction = rng.bernoulli(0.35) ? Direction::kUp : Direction::kDown;
    if (rng.bernoulli(0.5)) {
      f.volume_bytes = rng.uniform(1e4, 2e7);  // volume-bound transfer
    } else {
      f.duration_s = rng.uniform(1.0, 0.8 * window_s);  // rate-bound session
      if (rng.bernoulli(0.7)) f.rate_cap = Rate::from_kbps(rng.uniform(64.0, 8000.0));
    }
    flows.push_back(f);
  }
  std::sort(flows.begin(), flows.end(),
            [](const Flow& a, const Flow& b) { return a.start < b.start; });
  return flows;
}

/// Bitwise equality: memcmp over the raw doubles, so a sign-of-zero or
/// last-ulp drift fails loudly instead of hiding inside a tolerance.
void expect_identical(const BinnedUsage& a, const BinnedUsage& b) {
  ASSERT_EQ(a.bins(), b.bins());
  const auto same = [](const std::vector<double>& x, const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  EXPECT_TRUE(same(a.down_bytes, b.down_bytes)) << "down_bytes diverged";
  EXPECT_TRUE(same(a.up_bytes, b.up_bytes)) << "up_bytes diverged";
  EXPECT_TRUE(same(a.bt_active_s, b.bt_active_s)) << "bt_active_s diverged";
}

// 8 seeds x 125 iterations = 1000 randomized workloads, mixing volume and
// duration flows, both directions, off-window starts, varied bin widths,
// and non-zero window origins.
// One workspace is reused across every optimized run, so cross-workload
// state leakage would surface as a mismatch too.
class FluidDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FluidDifferential, OptimizedMatchesReferenceByteExactly) {
  Rng rng{GetParam()};
  FluidWorkspace ws;
  for (int iter = 0; iter < 125; ++iter) {
    const AccessLink link = random_link(rng);
    const SimTime window_start = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 3e7);
    const double bin_width = rng.bernoulli(0.7) ? 30.0 : rng.uniform(5.0, 3600.0);
    const auto bins = 1 + rng.index(60);
    const double window_s = static_cast<double>(bins) * bin_width;
    const auto flows = random_flows(rng, window_start, window_s);

    const FluidLinkSimulator sim{link};
    const auto fast = sim.run(flows, window_start, bins, bin_width, ws);
    const auto slow = sim.run_reference(flows, window_start, bins, bin_width);
    expect_identical(fast, slow);
    if (::testing::Test::HasFailure()) {
      FAIL() << "divergence at seed " << GetParam() << " iteration " << iter;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidDifferential,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107, 108));

// Same contract on realistic traffic: full WorkloadGenerator user-days
// (diurnal arrivals, heavy tails, ABR ladder, BitTorrent habits) instead
// of synthetic flow soups.
class FluidDifferentialWorkload : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FluidDifferentialWorkload, GeneratedUserDaysMatchByteExactly) {
  Rng rng{GetParam()};
  const SimClock clock{2011};
  const DiurnalModel diurnal{DiurnalParams{}, clock};
  const WorkloadGenerator gen{diurnal};
  FluidWorkspace ws;
  for (int iter = 0; iter < 6; ++iter) {
    const AccessLink link = random_link(rng);
    WorkloadParams params;
    params.intensity = rng.uniform(0.4, 2.0);
    params.heavy_intensity = rng.uniform(0.4, 2.0);
    params.bt_sessions_per_day = rng.bernoulli(0.5) ? rng.uniform(0.2, 2.0) : 0.0;
    const SimTime t0 = std::floor(rng.uniform(0.0, 300.0)) * kDay;
    const auto flows = gen.generate(params, link, t0, t0 + kDay / 4.0, rng);

    const FluidLinkSimulator sim{link};
    const auto fast = sim.run(flows, t0, 720, 30.0, ws);
    const auto slow = sim.run_reference(flows, t0, 720, 30.0);
    expect_identical(fast, slow);
    if (::testing::Test::HasFailure()) {
      FAIL() << "divergence at seed " << GetParam() << " iteration " << iter;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidDifferentialWorkload,
                         ::testing::Values(201, 202, 203, 204));

}  // namespace
}  // namespace bblab::netsim
