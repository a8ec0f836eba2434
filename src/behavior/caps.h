// Usage-cap awareness.
//
// The paper cites Chetty et al. (CHI'12) on how monthly bandwidth caps
// change household behavior, and notes (§6) that capped plans distort the
// price-capacity relationship. This module models the behavioral side: a
// household on a capped plan estimates its monthly appetite and throttles
// its deliberate (heavy) consumption as the estimate approaches the cap.
// The study generator applies it (apply_cap) to every household on a
// capped plan.
#pragma once

#include "core/units.h"
#include "netsim/link.h"
#include "netsim/tcp_model.h"
#include "netsim/workload.h"

namespace bblab::behavior {

struct CapPolicy {
  /// Fraction of the cap at which households begin moderating.
  double throttle_start{0.5};
  /// Heavy-traffic multiplier when the appetite reaches/exceeds the cap.
  double min_heavy_factor{0.30};
  /// Interactive use is curtailed far less.
  double min_light_factor{0.75};
};

/// Closed-form estimate of a workload's monthly download volume (bytes):
/// expected sessions x expected volumes under the diurnal duty cycle.
/// Used by households to anticipate overage, and by tests as an oracle
/// against simulated totals.
[[nodiscard]] double estimate_monthly_bytes(const netsim::WorkloadParams& params,
                                            const netsim::AccessLink& link,
                                            const netsim::WorkloadConstants& constants,
                                            const netsim::TcpModel& tcp);

/// Throttle multipliers for a household whose expected appetite is
/// `expected_bytes` against `cap_bytes`. Returns {light, heavy} factors in
/// (0, 1]; both 1.0 when comfortably under the cap.
struct CapThrottle {
  double light{1.0};
  double heavy{1.0};
};
[[nodiscard]] CapThrottle cap_throttle(double expected_bytes, double cap_bytes,
                                       const CapPolicy& policy = {});

/// Convenience: apply the throttle to workload parameters in place.
void apply_cap(netsim::WorkloadParams& params, const netsim::AccessLink& link,
               Bytes monthly_cap, const netsim::WorkloadConstants& constants,
               const netsim::TcpModel& tcp, const CapPolicy& policy = {});

}  // namespace bblab::behavior
