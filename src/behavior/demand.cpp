#include "behavior/demand.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace bblab::behavior {

double DemandModel::capacity_factor(Rate capacity) const {
  if (!params_.capacity_effect) return 1.0;
  const double c = capacity.mbps();
  const double saturating = c / (c + params_.capacity_half_mbps);
  return params_.capacity_floor +
         (params_.capacity_gain - params_.capacity_floor) * saturating;
}

namespace {

double pressure_impl(double need_mbps, Rate capacity, double exponent, double lo,
                     double hi) {
  require(need_mbps > 0.0, "pressure_factor: need must be positive");
  const double ratio = need_mbps / std::max(capacity.mbps(), 0.05);
  return std::clamp(std::pow(ratio, exponent), lo, hi);
}

}  // namespace

double DemandModel::pressure_factor(double need_mbps, Rate capacity) const {
  if (!params_.pressure_effect) return 1.0;
  return pressure_impl(need_mbps, capacity, params_.pressure_exponent,
                       params_.pressure_min, params_.pressure_max);
}

double DemandModel::pressure_factor_light(double need_mbps, Rate capacity) const {
  if (!params_.pressure_effect) return 1.0;
  return pressure_impl(need_mbps, capacity, params_.pressure_exponent_light,
                       params_.pressure_min, params_.pressure_max);
}

double DemandModel::quality_factor(Millis rtt_ms, LossRate loss) const {
  if (!params_.quality_effect) return 1.0;
  // Latency pain: logistic drop centered at the knee.
  const double rtt_pain =
      1.0 / (1.0 + std::exp(-(rtt_ms - params_.rtt_knee_ms) / params_.rtt_width_ms));
  const double rtt_factor =
      1.0 - (1.0 - params_.rtt_min_factor) * rtt_pain;
  // Loss pain: logistic in log10(loss) around the knee.
  const double floor_loss = std::max(loss, 1e-6);
  const double decades = std::log10(floor_loss / params_.loss_knee);
  const double loss_pain = 1.0 / (1.0 + std::exp(-decades / params_.loss_width_decades));
  const double loss_factor = 1.0 - (1.0 - params_.loss_min_factor) * loss_pain;
  return rtt_factor * loss_factor;
}

netsim::WorkloadParams DemandModel::workload_params(const SubscriberContext& ctx,
                                                    double intensity_noise,
                                                    double phase_shift_hours) const {
  require(intensity_noise > 0.0, "workload_params: noise must be positive");
  const ArchetypeTraits traits = traits_of(ctx.archetype);
  netsim::WorkloadParams wp;

  const double base = traits.base_intensity * capacity_factor(ctx.link.down) *
                      quality_factor(ctx.link.rtt_ms, ctx.link.loss) * intensity_noise;
  wp.intensity = base * pressure_factor_light(ctx.need_mbps, ctx.link.down);
  wp.heavy_intensity = base * pressure_factor(ctx.need_mbps, ctx.link.down);

  if (ctx.bt_user && traits.bt_sessions_per_day > 0.0) {
    // The BitTorrent habit responds to the same pressures: a starved or
    // suffering connection is used more deliberately.
    wp.bt_sessions_per_day = traits.bt_sessions_per_day *
                             pressure_factor(ctx.need_mbps, ctx.link.down) *
                             quality_factor(ctx.link.rtt_ms, ctx.link.loss);
  }
  wp.video_top_mbps = traits.video_top_mbps;
  wp.phase_shift_hours = phase_shift_hours;
  return wp;
}

DemandModel DemandModel::placebo() const {
  DemandModelParams p = params_;
  p.capacity_effect = false;
  p.pressure_effect = false;
  p.quality_effect = false;
  return DemandModel{p};
}

}  // namespace bblab::behavior
