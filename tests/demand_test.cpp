#include "behavior/demand.h"

#include <gtest/gtest.h>

#include "core/error.h"

namespace bblab::behavior {
namespace {

netsim::AccessLink link(double mbps, double rtt = 40.0, double loss = 0.0005) {
  netsim::AccessLink l;
  l.down = Rate::from_mbps(mbps);
  l.up = Rate::from_mbps(mbps / 8);
  l.rtt_ms = rtt;
  l.loss = loss;
  return l;
}

TEST(DemandModel, CapacityFactorSaturates) {
  const DemandModel model;
  const double f1 = model.capacity_factor(Rate::from_mbps(1));
  const double f6 = model.capacity_factor(Rate::from_mbps(6));
  const double f50 = model.capacity_factor(Rate::from_mbps(50));
  const double f200 = model.capacity_factor(Rate::from_mbps(200));
  EXPECT_LT(f1, f6);
  EXPECT_LT(f6, f50);
  EXPECT_LT(f50, f200);
  // Diminishing returns: the 50->200 gain is small relative to 1->6.
  EXPECT_LT(f200 - f50, (f6 - f1) * 0.5);
  // Knee: at c = c_half the saturating part is exactly 1/2.
  const auto& p = model.params();
  EXPECT_NEAR(model.capacity_factor(Rate::from_mbps(p.capacity_half_mbps)),
              p.capacity_floor + (p.capacity_gain - p.capacity_floor) / 2.0, 1e-12);
}

TEST(DemandModel, PressureFactorRisesWithUnmetNeed) {
  const DemandModel model;
  // Need far above capacity -> maximum pressure.
  EXPECT_GT(model.pressure_factor(40.0, Rate::from_mbps(1)),
            model.pressure_factor(2.0, Rate::from_mbps(1)));
  // Need met -> pressure near 1.
  EXPECT_NEAR(model.pressure_factor(4.0, Rate::from_mbps(4)), 1.0, 1e-9);
  // Oversupplied -> below 1 but clamped at the floor.
  const double oversupplied = model.pressure_factor(1.0, Rate::from_mbps(100));
  EXPECT_LT(oversupplied, 1.0);
  EXPECT_GE(oversupplied, model.params().pressure_min);
  EXPECT_THROW((void)model.pressure_factor(0.0, Rate::from_mbps(1)), InvalidArgument);
}

TEST(DemandModel, QualityFactorPenalizesBadLinks) {
  const DemandModel model;
  const double clean = model.quality_factor(40.0, 0.0005);
  const double high_rtt = model.quality_factor(800.0, 0.0005);
  const double high_loss = model.quality_factor(40.0, 0.03);
  const double both = model.quality_factor(800.0, 0.03);
  EXPECT_NEAR(clean, 1.0, 0.1);
  EXPECT_LT(high_rtt, 0.8);
  EXPECT_LT(high_loss, 0.8);
  EXPECT_LT(both, high_rtt);
  EXPECT_LT(both, high_loss);
  // Floors: never suppressed to zero.
  EXPECT_GT(model.quality_factor(3000.0, 0.3), 0.15);
}

TEST(DemandModel, QualityKneesMatchPaperThresholds) {
  const DemandModel model;
  // The paper: >512 ms latency and >1% loss clearly reduce usage, mild
  // effects below. Check the factor drops most steeply around the knees.
  const double at_256 = model.quality_factor(256.0, 0.0001);
  const double at_512 = model.quality_factor(512.0, 0.0001);
  const double at_1024 = model.quality_factor(1024.0, 0.0001);
  EXPECT_GT(at_256 - at_512, 0.0);
  EXPECT_GT(at_512 - at_1024, at_256 - at_512);

  const double loss_01 = model.quality_factor(40.0, 0.001);
  const double loss_1 = model.quality_factor(40.0, 0.01);
  const double loss_10 = model.quality_factor(40.0, 0.10);
  EXPECT_GT(loss_01, loss_1);
  EXPECT_GT(loss_1, loss_10);
}

TEST(DemandModel, WorkloadParamsComposeFactors) {
  const DemandModel model;
  SubscriberContext ctx;
  ctx.archetype = Archetype::kBrowser;
  ctx.need_mbps = 8.0;
  ctx.link = link(4.0);
  ctx.bt_user = false;
  const auto wp = model.workload_params(ctx, 1.0, 0.0);
  const double base = traits_of(Archetype::kBrowser).base_intensity *
                      model.capacity_factor(ctx.link.down) *
                      model.quality_factor(40.0, 0.0005);
  EXPECT_NEAR(wp.intensity, base * model.pressure_factor_light(8.0, ctx.link.down),
              1e-12);
  EXPECT_NEAR(wp.heavy_intensity, base * model.pressure_factor(8.0, ctx.link.down),
              1e-12);
  // Unmet need moves the heavy channel much more than the interactive one.
  EXPECT_GT(wp.heavy_intensity, wp.intensity);
  EXPECT_DOUBLE_EQ(wp.bt_sessions_per_day, 0.0);
}

TEST(DemandModel, BtUsersInheritHabitScaledByPressure) {
  const DemandModel model;
  SubscriberContext ctx;
  ctx.archetype = Archetype::kBtHeavy;
  ctx.need_mbps = 16.0;
  ctx.link = link(2.0);
  ctx.bt_user = true;
  const auto starved = model.workload_params(ctx, 1.0, 0.0);
  ctx.link = link(32.0);
  const auto sated = model.workload_params(ctx, 1.0, 0.0);
  EXPECT_GT(starved.bt_sessions_per_day, sated.bt_sessions_per_day);
  EXPECT_GT(sated.bt_sessions_per_day, 0.0);
}

TEST(DemandModel, PlaceboDisablesAllEffects) {
  const DemandModel placebo = DemandModel{}.placebo();
  EXPECT_DOUBLE_EQ(placebo.capacity_factor(Rate::from_mbps(100)), 1.0);
  EXPECT_DOUBLE_EQ(placebo.capacity_factor(Rate::from_kbps(100)), 1.0);
  EXPECT_DOUBLE_EQ(placebo.pressure_factor(100.0, Rate::from_kbps(100)), 1.0);
  EXPECT_DOUBLE_EQ(placebo.quality_factor(2000.0, 0.2), 1.0);
}

TEST(DemandModel, FixedNoiseIsDeterministic) {
  const DemandModel model;
  SubscriberContext ctx;
  ctx.need_mbps = 4.0;
  ctx.link = link(8.0);
  const auto a = model.workload_params(ctx, 1.3, 2.0);
  const auto b = model.workload_params(ctx, 1.3, 2.0);
  EXPECT_DOUBLE_EQ(a.intensity, b.intensity);
  EXPECT_DOUBLE_EQ(a.phase_shift_hours, 2.0);
  EXPECT_THROW((void)model.workload_params(ctx, 0.0, 0.0), InvalidArgument);
}

// Property: intensity is monotone in capacity for fixed need (the planted
// §3 effect) across a grid of needs.
class DemandMonotoneProperty : public ::testing::TestWithParam<double> {};

TEST_P(DemandMonotoneProperty, RealizableDemandRisesThenPlateaus) {
  // Intensity alone may fall with capacity (pressure relief), but
  // intensity x capacity-bounded throughput — the realizable demand — must
  // rise while capacity is scarce and must not collapse once it saturates
  // (the paper's diminishing-returns plateau).
  const DemandModel model;
  const double need = GetParam();
  double prev = 0.0;
  double running_max = 0.0;
  for (const double c : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    SubscriberContext ctx;
    ctx.need_mbps = need;
    ctx.link = link(c);
    const auto wp = model.workload_params(ctx, 1.0, 0.0);
    const double realizable = wp.intensity * std::min(c, need * 2);
    if (c <= need) {
      EXPECT_GE(realizable, prev * 0.999) << "need=" << need << " capacity=" << c;
    } else {
      EXPECT_GE(realizable, running_max * 0.85) << "need=" << need << " capacity=" << c;
    }
    prev = realizable;
    running_max = std::max(running_max, realizable);
  }
}

INSTANTIATE_TEST_SUITE_P(Needs, DemandMonotoneProperty,
                         ::testing::Values(1.0, 2.0, 6.0, 12.0, 40.0));

}  // namespace
}  // namespace bblab::behavior
