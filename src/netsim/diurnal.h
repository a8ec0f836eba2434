// Diurnal and weekly activity rhythms.
//
// Residential demand is strongly time-of-day dependent: the FCC gateways
// sample the full 24-hour cycle evenly while Dasu observations skew toward
// peak evening hours (the paper uses this to explain the Fig. 3 mean
// offset between the datasets). DiurnalModel produces a smooth activity
// multiplier in [floor, 1] with an evening peak, a night trough, and a
// weekend lift, plus per-user phase jitter.
#pragma once

#include "core/rng.h"
#include "core/time.h"

namespace bblab::netsim {

struct DiurnalParams {
  double peak_hour{21.0};       ///< local hour of maximum activity
  double trough_hour{5.0};      ///< hour of minimum activity
  double night_floor{0.12};     ///< activity multiplier at the trough
  double weekend_lift{1.25};    ///< daytime multiplier on weekends
  double phase_jitter_hours{1.5};  ///< per-user peak-hour spread (std dev)
};

class DiurnalModel {
 public:
  DiurnalModel(DiurnalParams params, const SimClock& clock)
      : params_{params}, clock_{clock} {}

  /// Activity multiplier at simulation time `t` for a user whose personal
  /// peak is shifted by `phase_shift_hours` from the population's.
  [[nodiscard]] double activity(SimTime t, double phase_shift_hours = 0.0) const {
    return activity_at(SimClock::hour_of_day(t), clock_.is_weekend(t),
                       phase_shift_hours);
  }

  /// The activity formula on calendar coordinates: `hour_of_day` in
  /// [0, 24) and whether the day is a weekend. activity(t) is exactly
  /// this at t's coordinates, so a caller walking a GridCalendar gets
  /// the same bits without the per-point calendar arithmetic.
  [[nodiscard]] double activity_at(double hour_of_day, bool weekend,
                                   double phase_shift_hours = 0.0) const;

  /// Draw a per-user phase shift.
  [[nodiscard]] double sample_phase(Rng& rng) const {
    return rng.normal(0.0, params_.phase_jitter_hours);
  }

  [[nodiscard]] const DiurnalParams& params() const { return params_; }
  [[nodiscard]] const SimClock& clock() const { return clock_; }

 private:
  DiurnalParams params_;
  SimClock clock_;
};

}  // namespace bblab::netsim
