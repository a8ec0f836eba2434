#include "core/time.h"

#include <array>
#include <cstdio>

#include "core/error.h"

namespace bblab {

std::string SimClock::label(SimTime t) const {
  const int yr = year(t);
  const double within_year = t - std::floor(t / kYear) * kYear;
  const int week = static_cast<int>(within_year / kWeek);
  const int dow = day_of_week(t);
  const double hod = hour_of_day(t);
  const int hh = static_cast<int>(hod);
  const int mm = static_cast<int>((hod - hh) * 60.0);
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%04d-w%02d day%d %02d:%02d", yr, week,
                dow, hh, mm);
  return std::string{buf.data()};
}

GridCalendar::GridCalendar(const SimClock& clock, SimTime t0, double step_s,
                           std::size_t points)
    : clock_{clock} {
  // Below 2^40 s, t / kDay lies at least 1/86400 from the next whole day
  // for every whole-second t inside a day, far above its rounding error,
  // so SimClock's floor(t / kDay) is exact there.
  constexpr double kExactLimit = 1099511627776.0;
  require(t0 >= 0.0 && t0 == std::floor(t0) && step_s > 0.0 &&
              step_s == std::floor(step_s) &&
              t0 + static_cast<double>(points) * step_s < kExactLimit,
          "GridCalendar: grid must be whole non-negative seconds");
  const auto start = static_cast<std::int64_t>(t0);
  step_s_ = static_cast<std::int64_t>(step_s);
  day_ = start / kDaySeconds;
  second_of_day_ = start % kDaySeconds;
  weekend_ = clock_.weekday_of_day(day_) >= 5;
}

}  // namespace bblab
