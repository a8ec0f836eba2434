#include "core/time.h"

#include <gtest/gtest.h>

#include "core/error.h"

namespace bblab {
namespace {

TEST(SimClock, YearAdvancesWithSimYears) {
  const SimClock clock{2011};
  EXPECT_EQ(clock.year(0.0), 2011);
  EXPECT_EQ(clock.year(kYear - 1.0), 2011);
  EXPECT_EQ(clock.year(kYear), 2012);
  EXPECT_EQ(clock.year(2.5 * kYear), 2013);
}

TEST(SimClock, HourOfDayWraps) {
  EXPECT_DOUBLE_EQ(SimClock::hour_of_day(0.0), 0.0);
  EXPECT_DOUBLE_EQ(SimClock::hour_of_day(kHour * 13.5), 13.5);
  EXPECT_DOUBLE_EQ(SimClock::hour_of_day(kDay + kHour * 2), 2.0);
}

TEST(SimClock, DayOfWeekCycles) {
  const SimClock clock{2011, 0};
  EXPECT_EQ(clock.day_of_week(0.0), 0);
  EXPECT_EQ(clock.day_of_week(kDay * 4), 4);
  EXPECT_EQ(clock.day_of_week(kDay * 7), 0);
  EXPECT_EQ(clock.day_of_week(kDay * 13), 6);
}

TEST(SimClock, WeekendDetection) {
  const SimClock clock{2011, 0};  // day 0 = Monday
  EXPECT_FALSE(clock.is_weekend(0.0));
  EXPECT_FALSE(clock.is_weekend(kDay * 4 + kHour));  // Friday
  EXPECT_TRUE(clock.is_weekend(kDay * 5 + kHour));   // Saturday
  EXPECT_TRUE(clock.is_weekend(kDay * 6 + kHour));   // Sunday
}

TEST(SimClock, EpochWeekdayShiftsCycle) {
  const SimClock clock{2011, 5};  // simulation starts on a Saturday
  EXPECT_TRUE(clock.is_weekend(0.0));
  EXPECT_FALSE(clock.is_weekend(kDay * 2));  // Monday
}

TEST(SimClock, LabelFormat) {
  const SimClock clock{2011};
  EXPECT_EQ(clock.label(0.0), "2011-w00 day0 00:00");
  EXPECT_EQ(clock.label(kYear + kWeek * 3 + kDay * 2 + kHour * 14 + kMinute * 30),
            "2012-w03 day2 14:30");
}

TEST(GridCalendar, MatchesSimClockOnEveryGridPoint) {
  // Two weeks of 30 s boundaries from whole-day starts in years 0-3, for
  // every epoch weekday, plus an off-day start and a step over a day.
  for (int epoch_weekday = 0; epoch_weekday < 7; ++epoch_weekday) {
    const SimClock clock{2011, epoch_weekday};
    for (int year = 0; year < 4; ++year) {
      for (const double t0 : {year * kYear + 17 * kDay, year * kYear + 7 * kHour + 31}) {
        constexpr std::size_t kPoints = 2 * 7 * 2880;
        GridCalendar cal{clock, t0, 30.0, kPoints};
        for (std::size_t i = 1; i <= kPoints; ++i) {
          cal.advance();
          const SimTime t = t0 + static_cast<double>(i) * 30.0;
          ASSERT_EQ(cal.hour_of_day(), SimClock::hour_of_day(t)) << t;
          ASSERT_EQ(cal.is_weekend(), clock.is_weekend(t)) << t;
        }
      }
    }
    GridCalendar days{clock, 3 * kDay, 90000.0, 30};
    for (int i = 1; i <= 30; ++i) {
      days.advance();
      const SimTime t = 3 * kDay + i * 90000.0;
      ASSERT_EQ(days.hour_of_day(), SimClock::hour_of_day(t)) << t;
      ASSERT_EQ(days.is_weekend(), clock.is_weekend(t)) << t;
    }
  }
}

TEST(GridCalendar, RejectsGridsOffWholeSeconds) {
  const SimClock clock{2011};
  EXPECT_THROW((GridCalendar{clock, 0.5, 30.0, 10}), InvalidArgument);
  EXPECT_THROW((GridCalendar{clock, 0.0, 30.25, 10}), InvalidArgument);
  EXPECT_THROW((GridCalendar{clock, 0.0, 0.0, 10}), InvalidArgument);
  EXPECT_THROW((GridCalendar{clock, -kDay, 30.0, 10}), InvalidArgument);
  EXPECT_THROW((GridCalendar{clock, 0.0, 30.0, std::size_t{1} << 40}), InvalidArgument);
  EXPECT_NO_THROW((GridCalendar{clock, 4 * kYear, 30.0, 2880}));
}

TEST(TimeConstants, AreConsistent) {
  EXPECT_DOUBLE_EQ(kDay, 86400.0);
  EXPECT_DOUBLE_EQ(kWeek, 7 * kDay);
  EXPECT_DOUBLE_EQ(kYear, 52 * kWeek);
}

}  // namespace
}  // namespace bblab
