// Simulation time.
//
// The simulator runs on a simple continuous clock of seconds since the
// start of the simulated study period. Calendar mapping (year, day of
// week, local hour) is what the behavioral models need — subscribers have
// diurnal and weekly rhythms and the longitudinal analysis bins by year —
// so SimClock provides exactly that, with a configurable epoch.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

namespace bblab {

/// Seconds since the simulation epoch.
using SimTime = double;

inline constexpr SimTime kSecond = 1.0;
inline constexpr SimTime kMinute = 60.0;
inline constexpr SimTime kHour = 3600.0;
inline constexpr SimTime kDay = 24 * kHour;
inline constexpr SimTime kWeek = 7 * kDay;
/// Study years are modeled as 52-week blocks; exact calendar length is
/// irrelevant to the statistics and this keeps week/day boundaries aligned.
inline constexpr SimTime kYear = 52 * kWeek;

/// Maps SimTime to calendar-like coordinates.
class SimClock {
 public:
  /// `epoch_year` is the calendar year at t = 0 (the paper's data starts in
  /// 2011); `epoch_weekday` the day-of-week at t = 0 (0 = Monday).
  explicit SimClock(int epoch_year = 2011, int epoch_weekday = 0)
      : epoch_year_{epoch_year}, epoch_weekday_{epoch_weekday} {}

  [[nodiscard]] int year(SimTime t) const {
    return epoch_year_ + static_cast<int>(std::floor(t / kYear));
  }

  /// Local hour of day in [0, 24).
  [[nodiscard]] static double hour_of_day(SimTime t) {
    const double d = std::fmod(t, kDay);
    return (d < 0 ? d + kDay : d) / kHour;
  }

  /// Day of week in [0, 7), 0 = Monday at the epoch.
  [[nodiscard]] int day_of_week(SimTime t) const {
    const double days = std::floor(t / kDay) + epoch_weekday_;
    const int dow = static_cast<int>(std::fmod(days, 7.0));
    return dow < 0 ? dow + 7 : dow;
  }

  [[nodiscard]] bool is_weekend(SimTime t) const { return day_of_week(t) >= 5; }

  /// Day of week of whole day `day` since the epoch (day_of_week of any
  /// time inside that day).
  [[nodiscard]] int weekday_of_day(std::int64_t day) const {
    const auto dow = static_cast<int>((day + epoch_weekday_) % 7);
    return dow < 0 ? dow + 7 : dow;
  }

  /// "2012-w17 day3 14:30" style label for logs and traces.
  [[nodiscard]] std::string label(SimTime t) const;

 private:
  int epoch_year_;
  int epoch_weekday_;
};

/// Calendar position walked along a whole-second grid t0, t0 + step, ...
/// in integer arithmetic: no fmod or floor per point, and at each point
/// hour_of_day() and is_weekend() equal SimClock::hour_of_day(t) and
/// clock.is_weekend(t) bit for bit. Exactness needs every grid point to
/// be a whole number of seconds and SimClock's own double arithmetic to
/// be exact there, so the constructor requires an integral non-negative
/// t0, an integral positive step, and `points` steps that stay below
/// 2^40 s (~35,000 years); it throws InvalidArgument otherwise.
class GridCalendar {
 public:
  GridCalendar(const SimClock& clock, SimTime t0, double step_s, std::size_t points);

  /// Move to the next grid point.
  void advance() {
    second_of_day_ += step_s_;
    if (second_of_day_ >= kDaySeconds) {
      day_ += second_of_day_ / kDaySeconds;
      second_of_day_ %= kDaySeconds;
      weekend_ = clock_.weekday_of_day(day_) >= 5;
    }
  }

  [[nodiscard]] double hour_of_day() const {
    return static_cast<double>(second_of_day_) / kHour;
  }
  [[nodiscard]] bool is_weekend() const { return weekend_; }

 private:
  static constexpr std::int64_t kDaySeconds = 86400;

  SimClock clock_;
  std::int64_t step_s_;
  std::int64_t day_;
  std::int64_t second_of_day_;
  bool weekend_;
};

}  // namespace bblab
