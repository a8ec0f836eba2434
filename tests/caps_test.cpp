#include "behavior/caps.h"

#include <gtest/gtest.h>

#include <numeric>

#include "core/error.h"
#include "core/rng.h"
#include "netsim/fluid.h"

namespace bblab::behavior {
namespace {

netsim::AccessLink link(double mbps) {
  netsim::AccessLink l;
  l.down = Rate::from_mbps(mbps);
  l.up = Rate::from_mbps(mbps / 8);
  l.rtt_ms = 40.0;
  l.loss = 0.0005;
  return l;
}

TEST(CapThrottle, NoThrottleWellUnderCap) {
  const auto t = cap_throttle(10e9, 100e9);
  EXPECT_DOUBLE_EQ(t.light, 1.0);
  EXPECT_DOUBLE_EQ(t.heavy, 1.0);
}

TEST(CapThrottle, FullThrottleAtAndBeyondCap) {
  const CapPolicy policy;
  const auto at_cap = cap_throttle(100e9, 100e9, policy);
  EXPECT_NEAR(at_cap.heavy, policy.min_heavy_factor, 1e-12);
  EXPECT_NEAR(at_cap.light, policy.min_light_factor, 1e-12);
  const auto beyond = cap_throttle(400e9, 100e9, policy);
  EXPECT_NEAR(beyond.heavy, policy.min_heavy_factor, 1e-12);
}

TEST(CapThrottle, MonotoneAndHeavierOnHeavyChannel) {
  double prev_heavy = 1.1;
  for (const double ratio : {0.4, 0.6, 0.8, 1.0, 1.5}) {
    const auto t = cap_throttle(ratio * 50e9, 50e9);
    EXPECT_LE(t.heavy, prev_heavy);
    EXPECT_LE(t.heavy, t.light);  // deliberate use is cut harder
    prev_heavy = t.heavy;
  }
}

TEST(CapThrottle, Validation) {
  EXPECT_THROW((void)cap_throttle(1e9, 0.0), InvalidArgument);
  EXPECT_THROW((void)cap_throttle(-1.0, 1e9), InvalidArgument);
}

TEST(EstimateMonthlyBytes, ScalesWithIntensity) {
  netsim::WorkloadParams quiet;
  quiet.intensity = 0.5;
  quiet.heavy_intensity = 0.5;
  netsim::WorkloadParams busy;
  busy.intensity = 2.0;
  busy.heavy_intensity = 2.0;
  const netsim::TcpModel tcp;
  const netsim::WorkloadConstants c;
  const double lo = estimate_monthly_bytes(quiet, link(16), c, tcp);
  const double hi = estimate_monthly_bytes(busy, link(16), c, tcp);
  EXPECT_GT(hi, 2.0 * lo);
  EXPECT_GT(lo, 1e9);   // a broadband household moves gigabytes per month
  EXPECT_LT(hi, 1e12);  // ...but not a petabyte
}

TEST(EstimateMonthlyBytes, TracksSimulatedVolume) {
  // The closed-form estimate should land within ~2.5x of a simulated
  // month (it ignores link sharing and clipping, so it overestimates on
  // slow links; we check on a fast one).
  netsim::WorkloadParams params;
  params.bt_sessions_per_day = 0.5;
  const netsim::TcpModel tcp;
  const netsim::WorkloadConstants c;
  const auto l = link(50);
  const double estimate = estimate_monthly_bytes(params, l, c, tcp);

  const SimClock clock{2011};
  const netsim::DiurnalModel diurnal{netsim::DiurnalParams{}, clock};
  const netsim::WorkloadGenerator gen{diurnal, tcp, c};
  Rng rng{3};
  double simulated = 0.0;
  constexpr int kDays = 10;
  const auto flows = gen.generate(params, l, 0.0, kDays * kDay, rng);
  const netsim::FluidLinkSimulator sim{l, tcp};
  const auto usage = sim.run(flows, 0.0, kDays * 2880, 30.0);
  simulated = std::accumulate(usage.down_bytes.begin(), usage.down_bytes.end(), 0.0) *
              (30.0 / kDays);
  EXPECT_GT(estimate, simulated / 2.5);
  EXPECT_LT(estimate, simulated * 2.5);
}

TEST(ApplyCap, ThrottlesHeavyUsersOnly) {
  const netsim::TcpModel tcp;
  const netsim::WorkloadConstants c;
  const auto l = link(30);

  netsim::WorkloadParams heavy_user;
  heavy_user.intensity = 2.0;
  heavy_user.heavy_intensity = 3.0;
  heavy_user.bt_sessions_per_day = 3.0;
  const auto before = heavy_user;
  apply_cap(heavy_user, l, 50 * kGiB, c, tcp);  // tight 50 GiB cap
  EXPECT_LT(heavy_user.heavy_intensity, before.heavy_intensity);
  EXPECT_LT(heavy_user.bt_sessions_per_day, before.bt_sessions_per_day);
  EXPECT_LE(heavy_user.intensity, before.intensity);

  netsim::WorkloadParams light_user;
  light_user.intensity = 0.2;
  light_user.heavy_intensity = 0.2;
  const auto light_before = light_user;
  apply_cap(light_user, l, 600 * kGiB, c, tcp);  // roomy cap
  EXPECT_DOUBLE_EQ(light_user.intensity, light_before.intensity);
  EXPECT_DOUBLE_EQ(light_user.heavy_intensity, light_before.heavy_intensity);
}

}  // namespace
}  // namespace bblab::behavior
