#include "netsim/diurnal.h"

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

}  // namespace bblab::netsim
