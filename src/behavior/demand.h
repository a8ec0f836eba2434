// The demand model: how market position and connection quality shape a
// household's offered traffic.
//
// This is the generator's causal ground truth — the structure the paper's
// natural experiments are designed to detect:
//
//   1. CAPACITY -> DEMAND with diminishing returns (§3): a saturating
//      capacity factor c/(c + c_half) boosts foreground intensity, ABR
//      video picks higher rungs on faster links, and BitTorrent/bulk run
//      at link speed. The knee c_half ≈ 6 Mbps puts the plateau near
//      10 Mbps as the paper observes.
//   2. UNMET NEED -> DEMAND (§5, §6): a household whose latent need
//      exceeds its subscribed capacity (typical where access or upgrades
//      are expensive) works its link harder. The pressure factor is
//      (need / capacity)^pressure_exponent, clamped.
//   3. QUALITY -> DEMAND (§7): beyond the mechanical TCP throughput
//      penalty, poor quality of experience suppresses engagement. RTT
//      above ~512 ms and loss above ~1% multiply intensity down.
//
// Each factor has an enable flag so placebo datasets (no planted effect)
// can validate that the experiment pipeline reports null results.
#pragma once

#include "behavior/archetype.h"
#include "netsim/link.h"
#include "netsim/workload.h"

namespace bblab::behavior {

struct DemandModelParams {
  // Capacity factor.
  bool capacity_effect{true};
  double capacity_half_mbps{6.0};   ///< half-saturation knee
  double capacity_floor{0.52};      ///< intensity multiplier as c -> 0
  double capacity_gain{1.50};       ///< extra multiplier as c -> inf

  // Unmet-need pressure factors. Deliberate heavy consumption (video,
  // bulk downloads, BitTorrent) responds strongly to unmet need — a
  // starved household schedules and savors its downloads — while
  // interactive use (web, calls) barely budges. The heavy channel is what
  // the §5/§6 price experiments detect; keeping the interactive exponent
  // small lets within-user upgrades still raise total demand (Table 1)
  // despite the pressure relief.
  bool pressure_effect{true};
  double pressure_exponent{0.75};        ///< heavy-appetite channel
  double pressure_exponent_light{0.15};  ///< interactive channel
  double pressure_min{0.45};
  double pressure_max{2.6};

  // Quality-of-experience suppression.
  bool quality_effect{true};
  double rtt_knee_ms{512.0};        ///< logistic midpoint for latency pain
  double rtt_width_ms{220.0};
  double rtt_min_factor{0.45};
  double loss_knee{0.01};           ///< 1% loss
  double loss_width_decades{0.45};  ///< logistic width in log10(loss)
  double loss_min_factor{0.50};

  // Idiosyncratic per-user noise on intensity (log-normal sigma).
  double intensity_log_sigma{0.35};
};

/// Everything the demand model needs to know about one subscriber.
struct SubscriberContext {
  Archetype archetype{Archetype::kBrowser};
  double need_mbps{4.0};            ///< latent household need
  netsim::AccessLink link;          ///< the line they subscribed to
  bool bt_user{false};              ///< has the BitTorrent habit at all
};

class DemandModel {
 public:
  explicit DemandModel(DemandModelParams params = {}) : params_{params} {}

  /// The multiplicative factors, exposed individually for tests/ablations.
  [[nodiscard]] double capacity_factor(Rate capacity) const;
  /// Heavy-appetite pressure (video/bulk/BitTorrent arrivals).
  [[nodiscard]] double pressure_factor(double need_mbps, Rate capacity) const;
  /// Interactive pressure (web/VoIP arrivals).
  [[nodiscard]] double pressure_factor_light(double need_mbps, Rate capacity) const;
  [[nodiscard]] double quality_factor(Millis rtt_ms, LossRate loss) const;

  /// Materialize the workload knobs for one subscriber. The caller draws
  /// the idiosyncratic intensity multiplier and diurnal phase; the
  /// within-user upgrade experiment holds them fixed across the
  /// before/after observations so the only change between windows is
  /// the service itself.
  [[nodiscard]] netsim::WorkloadParams workload_params(const SubscriberContext& ctx,
                                                       double intensity_noise,
                                                       double phase_shift_hours) const;

  [[nodiscard]] const DemandModelParams& params() const { return params_; }

  /// A copy with every causal effect disabled — the placebo generator.
  [[nodiscard]] DemandModel placebo() const;

 private:
  DemandModelParams params_;
};

}  // namespace bblab::behavior
