#include "netsim/diurnal.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace bblab::netsim {

double DiurnalModel::activity_at(double hour_of_day, bool weekend,
                                 double phase_shift_hours) const {
  const double hour = hour_of_day - phase_shift_hours;
  // Cosine bump centered on the peak hour; the trough parameterizes where
  // the cosine bottoms out. Using a single harmonic keeps the curve smooth
  // and strictly positive.
  const double cycle = 2.0 * std::numbers::pi / 24.0;
  const double phase = cycle * (hour - params_.peak_hour);
  const double raw = 0.5 * (1.0 + std::cos(phase));  // 1 at peak, 0 at peak+12h
  double level = params_.night_floor + (1.0 - params_.night_floor) * raw;
  if (weekend) {
    level = std::min(1.0, level * params_.weekend_lift);
  }
  return level;
}

DiurnalSqueeze::DiurnalSqueeze(const DiurnalParams& params, double offset, double scale)
    : offset_{offset}, scale_{scale} {
  // |d raw / d hour| <= 0.5 * 2pi/24; the level scales that by
  // |1 - night_floor|, a weekend by |weekend_lift| (the min(1, .) clamp
  // only flattens it), and the caller's level by |scale|.
  const double per_hour = std::abs(1.0 - params.night_floor) * 0.5 *
                          (2.0 * std::numbers::pi / 24.0) *
                          std::max(1.0, std::abs(params.weekend_lift));
  slope_per_s_ = std::abs(scale) * per_hour / kHour;
}

void DiurnalSqueeze::anchor(SimTime t, double activity) {
  level_ = offset_ + scale_ * activity;
  anchor_t_ = t;
  // The day SimClock::is_weekend reads, shrunk by a margin 16x the
  // rounding error of t / kDay there: every t inside the window has the
  // anchor's floor(t / kDay), so the anchor's weekend flag.
  const double day_start = std::floor(t / kDay) * kDay;
  const double margin = (std::abs(day_start) + kDay) * 0x1p-49;
  day_lo_ = day_start + margin;
  day_hi_ = day_start + kDay - margin;
}

}  // namespace bblab::netsim
