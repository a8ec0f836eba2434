// Vantage-point collectors: Dasu end hosts and FCC residential gateways.
//
// Both observe the same ground-truth traffic but through different
// instruments, and the differences matter to the analysis:
//   * DasuCollector samples ~30-second byte-counter deltas (UPnP 32-bit
//     with wraps, or netstat 64-bit), knows when the local BitTorrent
//     client is active, and only observes while the host is awake — which
//     biases its sample toward peak hours (the paper's explanation of the
//     Fig. 3 mean offset).
//   * GatewayCollector records hourly WAN byte totals around the clock
//     and has no application visibility (no BitTorrent flags).
#pragma once

#include "core/rng.h"
#include "measurement/counters.h"
#include "measurement/usage.h"
#include "netsim/diurnal.h"
#include "netsim/fluid.h"

namespace bblab::measurement {

struct DasuCollectorParams {
  /// Probability the host is up and Dasu sampling at the diurnal trough;
  /// at the peak it approaches 1. This is the source of peak-hour bias.
  double availability_floor{0.25};
  /// Fraction of users read through a UPnP (32-bit, wrapping) counter;
  /// the rest are directly connected and read netstat (64-bit).
  double upnp_share{0.6};
  /// Independent per-sample drop probability (scheduling hiccups).
  double sample_loss{0.02};
};

class DasuCollector {
 public:
  DasuCollector(DasuCollectorParams params, netsim::DiurnalModel diurnal)
      : params_{params}, diurnal_{diurnal} {}

  /// Observe a user's ground-truth traffic. `phase_shift_hours` is the
  /// user's personal diurnal phase (availability follows their rhythm).
  /// The bins must lie on a whole-second grid (GridCalendar).
  [[nodiscard]] UsageSeries collect(const netsim::BinnedUsage& truth,
                                    double phase_shift_hours, Rng& rng) const;

  /// The same observation reduced straight to its summary, without the
  /// series: the same draws in the same order as collect, and equal to
  /// summarize(collect(truth, phase_shift_hours, rng)) field for field.
  /// `scratch` holds the sample columns; once it has held a household of
  /// this size the call allocates nothing.
  [[nodiscard]] UsageSummary collect_summary(const netsim::BinnedUsage& truth,
                                             double phase_shift_hours, Rng& rng,
                                             SummaryColumns& scratch) const;

  [[nodiscard]] const DasuCollectorParams& params() const { return params_; }

 private:
  /// The one sampling loop behind collect and collect_summary: calls
  /// `sink(time, interval_s, down, up, bt_active)` for each sample taken.
  template <typename Sink>
  void sample(const netsim::BinnedUsage& truth, double phase_shift_hours, Rng& rng,
              Sink&& sink) const;

  DasuCollectorParams params_;
  netsim::DiurnalModel diurnal_;
};

struct GatewayCollectorParams {
  double report_interval_s{3600.0};  ///< hourly WAN byte totals
};

class GatewayCollector {
 public:
  explicit GatewayCollector(GatewayCollectorParams params = {}) : params_{params} {}

  /// Aggregate ground truth into the gateway's reporting cadence.
  [[nodiscard]] UsageSeries collect(const netsim::BinnedUsage& truth) const;

  [[nodiscard]] const GatewayCollectorParams& params() const { return params_; }

 private:
  GatewayCollectorParams params_;
};

}  // namespace bblab::measurement
