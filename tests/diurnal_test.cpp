#include "netsim/diurnal.h"

#include <gtest/gtest.h>

namespace bblab::netsim {
namespace {

DiurnalModel model() { return DiurnalModel{DiurnalParams{}, SimClock{2011, 0}}; }

TEST(Diurnal, PeaksInTheEveningTroughsAtNight) {
  const auto m = model();
  const double peak = m.activity(21.0 * kHour);   // Monday 21:00
  const double trough = m.activity(9.0 * kHour);  // 09:00 (peak+12)
  EXPECT_GT(peak, 0.95);
  EXPECT_LT(trough, 0.2);
  EXPECT_NEAR(trough, DiurnalParams{}.night_floor, 0.05);
}

TEST(Diurnal, AlwaysWithinBounds) {
  const auto m = model();
  for (double t = 0.0; t < 2 * kWeek; t += 900.0) {
    const double a = m.activity(t);
    EXPECT_GT(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

TEST(Diurnal, WeekendLiftsDaytime) {
  const auto m = model();
  const double monday_noon = m.activity(12.0 * kHour);
  const double saturday_noon = m.activity(5 * kDay + 12.0 * kHour);
  EXPECT_GT(saturday_noon, monday_noon);
}

TEST(Diurnal, PhaseShiftMovesPeak) {
  const auto m = model();
  // A +3h night-owl peaks at midnight instead of 21:00.
  const double at21_shifted = m.activity(21.0 * kHour, 3.0);
  const double at24_shifted = m.activity(24.0 * kHour, 3.0);
  EXPECT_GT(at24_shifted, at21_shifted);
}

TEST(Diurnal, SamplePhaseIsCentered) {
  auto m = model();
  Rng rng{3};
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) sum += m.sample_phase(rng);
  EXPECT_NEAR(sum / 10000.0, 0.0, 0.05);
}

TEST(Diurnal, ActivityAtGridCalendarEqualsActivity) {
  // activity_at on integer calendar coordinates must reproduce
  // activity(t) bit for bit on every 30 s boundary of a two-week window,
  // in each of the first four study years and for shifted phases.
  const auto m = model();
  for (int year = 0; year < 4; ++year) {
    const SimTime t0 = year * kYear + 40 * kDay;
    constexpr std::size_t kPoints = 2 * 7 * 2880;
    GridCalendar cal{m.clock(), t0, 30.0, kPoints};
    for (std::size_t i = 1; i <= kPoints; ++i) {
      cal.advance();
      const SimTime t = t0 + static_cast<double>(i) * 30.0;
      for (const double phase : {0.0, -2.7, 1.3}) {
        ASSERT_EQ(m.activity_at(cal.hour_of_day(), cal.is_weekend(), phase),
                  m.activity(t, phase))
            << "t=" << t << " phase=" << phase;
      }
    }
  }
}

TEST(Diurnal, SmoothCurve) {
  const auto m = model();
  // No discontinuities larger than what a 1-minute step implies.
  double prev = m.activity(0.0);
  for (double t = 60.0; t < kDay; t += 60.0) {
    const double cur = m.activity(t);
    EXPECT_LT(std::abs(cur - prev), 0.01);
    prev = cur;
  }
}

}  // namespace
}  // namespace bblab::netsim
