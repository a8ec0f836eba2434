// Diurnal and weekly activity rhythms.
//
// Residential demand is strongly time-of-day dependent: the FCC gateways
// sample the full 24-hour cycle evenly while Dasu observations skew toward
// peak evening hours (the paper uses this to explain the Fig. 3 mean
// offset between the datasets). DiurnalModel produces a smooth activity
// multiplier in [floor, 1] with an evening peak, a night trough, and a
// weekend lift, plus per-user phase jitter.
#pragma once

#include <cmath>
#include <limits>

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

/// Decides a run of Bernoulli tests `u < offset + scale * activity` with
/// the same result as evaluating the activity every time, but evaluating
/// it only near the threshold. It keeps an anchor: the time and level of
/// the last exact evaluation. Within one calendar day the level moves by
/// at most slope_per_s * |t - t_anchor|, so a `u` more than that (plus a
/// 1e-9 slack for floating-point error) below the anchor's level passes
/// and one as far above it fails without evaluation. Only a `u` inside
/// the band, or a `t` outside the anchor's day, calls `exact()` and
/// re-anchors. DESIGN.md §7 gives the bound and the slack's margin.
class DiurnalSqueeze {
 public:
  /// `params` bound the activity's slope; `offset + scale * activity` is
  /// the level each test compares against.
  explicit DiurnalSqueeze(const DiurnalParams& params, double offset = 0.0,
                          double scale = 1.0);

  /// Exactly `u < offset + scale * exact()`, where `exact()` returns the
  /// activity at `t` as DiurnalModel::activity does (same weekend flag).
  template <typename Exact>
  [[nodiscard]] bool below(double u, SimTime t, Exact&& exact) {
    if (t >= day_lo_ && t < day_hi_) {
      const double reach = slope_per_s_ * std::abs(t - anchor_t_) + kSlack;
      if (u < level_ - reach) return true;
      if (u >= level_ + reach) return false;
    }
    anchor(t, exact());
    return u < level_;
  }

 private:
  /// Far above the ~1e-15 error of one activity evaluation, far below
  /// the band it widens.
  static constexpr double kSlack = 1e-9;

  void anchor(SimTime t, double activity);

  double offset_;
  double scale_;
  double slope_per_s_;
  SimTime anchor_t_{0.0};
  double level_{0.0};
  /// Times whose floor(t / kDay) is surely the anchor's day; empty until
  /// the first anchor.
  SimTime day_lo_{std::numeric_limits<double>::infinity()};
  SimTime day_hi_{-std::numeric_limits<double>::infinity()};
};

}  // namespace bblab::netsim
