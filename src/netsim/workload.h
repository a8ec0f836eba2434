// Application workload generation.
//
// A household's offered traffic is a superposition of application
// sessions: web fetches, adaptive video streams, bulk downloads,
// BitTorrent, VoIP/gaming, and background chatter. Arrivals follow a
// non-homogeneous Poisson process modulated by the diurnal rhythm;
// volumes and durations are heavy-tailed. Two behavioral couplings matter
// for the paper's results and are modeled here:
//   * adaptive video picks its bitrate from the ladder the link can
//     sustain (capacity shapes demand — §3), and
//   * the overall intensity knob is set by the behavior layer from the
//     household's latent need and connection quality (§5-§7).
#pragma once

#include <array>
#include <vector>

#include "core/rng.h"
#include "netsim/diurnal.h"
#include "netsim/flow.h"
#include "netsim/link.h"
#include "netsim/tcp_model.h"

namespace bblab::netsim {

/// Per-user workload configuration produced by the behavior layer.
struct WorkloadParams {
  /// Scales interactive session arrivals (web, VoIP). 1.0 = the reference
  /// household ("median need met in a median market").
  double intensity{1.0};
  /// Scales heavy-appetite session arrivals (video, bulk, updates).
  /// Deliberate consumption responds much more elastically to unmet need
  /// than interactive browsing does.
  double heavy_intensity{1.0};
  /// BitTorrent habit: expected seeding/leeching sessions per day
  /// (0 = the user never runs BitTorrent).
  double bt_sessions_per_day{0.0};
  /// Personal peak-hour shift relative to the population diurnal curve.
  double phase_shift_hours{0.0};
  /// Cap on the video ladder (device/subscription bound), Mbps.
  double video_top_mbps{5.0};
};

/// Tunable population-level workload constants (exposed for tests and
/// ablation benches; defaults reproduce the paper-era traffic mix).
struct WorkloadConstants {
  double web_sessions_per_hour_peak{14.0};
  double web_page_median_bytes{1.6e6};
  double web_page_log_sigma{1.2};

  double video_sessions_per_hour_peak{0.55};
  double video_duration_median_s{1800.0};
  double video_duration_log_sigma{0.7};
  /// ABR targets a fraction of the measured sustainable throughput.
  double video_abr_headroom{0.85};

  double bulk_sessions_per_hour_peak{0.12};
  double bulk_volume_min_bytes{2e7};
  double bulk_volume_pareto_alpha{1.3};
  double bulk_volume_max_bytes{4e9};

  double bt_duration_median_s{7200.0};
  double bt_duration_log_sigma{0.8};
  /// Swarm-limited download rate: even with many connections, peers only
  /// serve so fast. Without this, BitTorrent would implausibly saturate
  /// 100 Mbps links.
  double bt_swarm_median_mbps{4.0};
  double bt_swarm_log_sigma{0.8};

  double voip_sessions_per_hour_peak{0.25};
  double voip_duration_mean_s{1500.0};
  double voip_rate_kbps{110.0};

  double background_rate_kbps{9.0};
  double update_sessions_per_day{0.25};
  double update_volume_median_bytes{8e7};
  double update_volume_log_sigma{1.0};
};

/// The 2011-2013 ABR bitrate ladder (Mbps).
[[nodiscard]] constexpr std::array<double, 8> video_ladder_mbps() {
  return {0.35, 0.7, 1.1, 1.8, 2.6, 3.5, 5.0, 8.0};
}

class WorkloadGenerator {
 public:
  WorkloadGenerator(DiurnalModel diurnal, TcpModel tcp = TcpModel{},
                    WorkloadConstants constants = {});

  /// Generate all flows for one user on `link` over [t0, t1) into `flows`
  /// (replacing its contents), sorted by start time. `arrivals` is
  /// scratch. Deterministic given the Rng state; once the two buffers have
  /// held a household of this size the call allocates nothing.
  void generate(const WorkloadParams& params, const AccessLink& link, SimTime t0,
                SimTime t1, Rng& rng, std::vector<Flow>& flows,
                std::vector<SimTime>& arrivals) const;

  /// The same flows in fresh buffers.
  [[nodiscard]] std::vector<Flow> generate(const WorkloadParams& params,
                                           const AccessLink& link, SimTime t0,
                                           SimTime t1, Rng& rng) const;

  /// The bitrate an ABR player would settle on for this link (Mbps).
  [[nodiscard]] double abr_bitrate_mbps(const AccessLink& link,
                                        double top_mbps) const;

  [[nodiscard]] const WorkloadConstants& constants() const { return constants_; }

 private:
  /// Non-homogeneous Poisson arrivals via thinning against the diurnal
  /// activity curve.
  void poisson_arrivals(double peak_per_hour, SimTime t0, SimTime t1,
                        double phase_shift, Rng& rng,
                        std::vector<SimTime>& out) const;

  DiurnalModel diurnal_;
  TcpModel tcp_;
  WorkloadConstants constants_;
  /// log() of the constants' lognormal medians, taken once.
  double web_page_mu_;
  double video_duration_mu_;
  double bt_duration_mu_;
  double bt_swarm_mu_;
  double update_volume_mu_;
};

}  // namespace bblab::netsim
