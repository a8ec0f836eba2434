#include "netsim/workload.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace bblab::netsim {

WorkloadGenerator::WorkloadGenerator(DiurnalModel diurnal, TcpModel tcp,
                                     WorkloadConstants constants)
    : diurnal_{diurnal},
      tcp_{tcp},
      constants_{constants},
      web_page_mu_{std::log(constants.web_page_median_bytes)},
      video_duration_mu_{std::log(constants.video_duration_median_s)},
      bt_duration_mu_{std::log(constants.bt_duration_median_s)},
      bt_swarm_mu_{std::log(constants.bt_swarm_median_mbps)},
      update_volume_mu_{std::log(constants.update_volume_median_bytes)} {}

double WorkloadGenerator::abr_bitrate_mbps(const AccessLink& link,
                                           double top_mbps) const {
  const double sustainable =
      tcp_.steady_throughput(link).mbps() * constants_.video_abr_headroom;
  const double budget = std::min(sustainable, top_mbps);
  constexpr auto kLadder = video_ladder_mbps();
  double best = 0.0;
  for (const double rung : kLadder) {
    if (rung <= budget) best = rung;
  }
  // Even a hopeless link plays the bottom rung (with stalls we do not
  // model; the QoE suppression lives in the behavior layer's intensity).
  return best > 0.0 ? best : kLadder.front();
}

void WorkloadGenerator::poisson_arrivals(double peak_per_hour, SimTime t0, SimTime t1,
                                         double phase_shift, Rng& rng,
                                         std::vector<SimTime>& out) const {
  if (peak_per_hour <= 0.0 || t1 <= t0) return;
  const double rate_per_s = peak_per_hour / kHour;
  // Thinning: draw at the peak rate, keep with probability activity(t).
  DiurnalSqueeze keep{diurnal_.params()};
  SimTime t = t0;
  while (true) {
    t += rng.exponential(rate_per_s);
    if (t >= t1) break;
    if (keep.below(rng.uniform(), t, [&] { return diurnal_.activity(t, phase_shift); })) {
      out.push_back(t);
    }
  }
}

std::vector<Flow> WorkloadGenerator::generate(const WorkloadParams& params,
                                              const AccessLink& link, SimTime t0,
                                              SimTime t1, Rng& rng) const {
  std::vector<Flow> flows;
  std::vector<SimTime> arrivals;
  generate(params, link, t0, t1, rng, flows, arrivals);
  return flows;
}

void WorkloadGenerator::generate(const WorkloadParams& params, const AccessLink& link,
                                 SimTime t0, SimTime t1, Rng& rng,
                                 std::vector<Flow>& flows,
                                 std::vector<SimTime>& arrivals) const {
  require(t1 > t0, "WorkloadGenerator::generate: empty window");
  require(params.intensity >= 0.0, "WorkloadGenerator: intensity must be >= 0");
  require(params.heavy_intensity >= 0.0,
          "WorkloadGenerator: heavy_intensity must be >= 0");
  flows.clear();
  const double phase = params.phase_shift_hours;

  // --- Web browsing: short volume-bound fetch bursts. -----------------
  arrivals.clear();
  poisson_arrivals(constants_.web_sessions_per_hour_peak * params.intensity, t0, t1,
                   phase, rng, arrivals);
  for (const SimTime t : arrivals) {
    Flow f;
    f.start = t;
    f.app = AppKind::kWeb;
    f.direction = Direction::kDown;
    f.volume_bytes = rng.lognormal(web_page_mu_, constants_.web_page_log_sigma);
    flows.push_back(f);
  }

  // --- Video streaming: duration-bound, rate capped at the ABR pick. --
  arrivals.clear();
  poisson_arrivals(constants_.video_sessions_per_hour_peak * params.heavy_intensity,
                   t0, t1, phase, rng, arrivals);
  const double bitrate = abr_bitrate_mbps(link, params.video_top_mbps);
  for (const SimTime t : arrivals) {
    Flow f;
    f.start = t;
    f.app = AppKind::kVideo;
    f.direction = Direction::kDown;
    f.duration_s = rng.lognormal(video_duration_mu_, constants_.video_duration_log_sigma);
    // 10% container/transport overhead over the media bitrate.
    f.rate_cap = Rate::from_mbps(bitrate * 1.1);
    flows.push_back(f);
  }

  // --- Bulk downloads: heavy-tailed volumes at full TCP speed. --------
  arrivals.clear();
  poisson_arrivals(constants_.bulk_sessions_per_hour_peak * params.heavy_intensity,
                   t0, t1, phase, rng, arrivals);
  for (const SimTime t : arrivals) {
    Flow f;
    f.start = t;
    f.app = AppKind::kBulk;
    f.direction = Direction::kDown;
    f.volume_bytes = std::min(
        rng.pareto(constants_.bulk_volume_min_bytes, constants_.bulk_volume_pareto_alpha),
        constants_.bulk_volume_max_bytes);
    flows.push_back(f);
  }

  // --- BitTorrent: long sessions saturating both directions. ----------
  if (params.bt_sessions_per_day > 0.0) {
    arrivals.clear();
    poisson_arrivals(params.bt_sessions_per_day / 24.0, t0, t1, phase, rng, arrivals);
    for (const SimTime t : arrivals) {
      const double duration =
          rng.lognormal(bt_duration_mu_, constants_.bt_duration_log_sigma);
      const double swarm_mbps =
          rng.lognormal(bt_swarm_mu_, constants_.bt_swarm_log_sigma);
      Flow down;
      down.start = t;
      down.app = AppKind::kBitTorrent;
      down.direction = Direction::kDown;
      down.duration_s = duration;
      down.rate_cap = Rate::from_mbps(swarm_mbps);
      flows.push_back(down);

      Flow up;
      up.start = t;
      up.app = AppKind::kBitTorrent;
      up.direction = Direction::kUp;
      // Seeding continues after the download phase; upload demand from the
      // swarm is a fraction of the download appetite.
      up.duration_s = duration * rng.uniform(1.0, 2.5);
      up.rate_cap = Rate::from_mbps(swarm_mbps * rng.uniform(0.3, 0.8));
      flows.push_back(up);
    }
  }

  // --- VoIP / gaming: thin constant-rate sessions, both directions. ---
  arrivals.clear();
  poisson_arrivals(constants_.voip_sessions_per_hour_peak * params.intensity, t0, t1,
                   phase, rng, arrivals);
  for (const SimTime t : arrivals) {
    const double duration = rng.exponential(1.0 / constants_.voip_duration_mean_s);
    for (const Direction dir : {Direction::kDown, Direction::kUp}) {
      Flow f;
      f.start = t;
      f.app = AppKind::kVoip;
      f.direction = dir;
      f.duration_s = duration;
      f.rate_cap = Rate::from_kbps(constants_.voip_rate_kbps);
      flows.push_back(f);
    }
  }

  // --- Background: an always-on trickle plus occasional updates. ------
  {
    Flow drizzle;
    drizzle.start = t0;
    drizzle.app = AppKind::kBackground;
    drizzle.direction = Direction::kDown;
    drizzle.duration_s = t1 - t0;
    drizzle.rate_cap =
        Rate::from_kbps(constants_.background_rate_kbps * std::sqrt(std::max(0.1, params.intensity)));
    flows.push_back(drizzle);
  }
  arrivals.clear();
  poisson_arrivals(constants_.update_sessions_per_day / 24.0 *
                       std::sqrt(std::max(0.1, params.heavy_intensity)),
                   t0, t1, phase, rng, arrivals);
  for (const SimTime t : arrivals) {
    Flow f;
    f.start = t;
    f.app = AppKind::kBackground;
    f.direction = Direction::kDown;
    f.volume_bytes = rng.lognormal(update_volume_mu_, constants_.update_volume_log_sigma);
    flows.push_back(f);
  }

  std::sort(flows.begin(), flows.end(),
            [](const Flow& a, const Flow& b) { return a.start < b.start; });
}

}  // namespace bblab::netsim
