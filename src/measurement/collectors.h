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

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/error.h"
#include "core/rng.h"
#include "core/time.h"
#include "core/units.h"
#include "measurement/counters.h"
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

/// Both collectors hand each sample they take to a sink, called as
/// `sink(time, interval_s, down, up, bt_active)`: `time` is the end of
/// the `interval_s` seconds the sample covers, `down`/`up` the mean
/// rates over them. The product sink is the household's SummaryColumns
/// behind its fault schedule (simulate_household); nothing keeps the
/// samples themselves.

class DasuCollector {
 public:
  DasuCollector(DasuCollectorParams params, netsim::DiurnalModel diurnal)
      : params_{params}, diurnal_{diurnal} {}

  /// Observe a user's ground-truth traffic, calling `sink` once per
  /// sample taken. `phase_shift_hours` is the user's personal diurnal
  /// phase (availability follows their rhythm). The bins must lie on a
  /// whole-second grid (GridCalendar).
  template <typename Sink>
  void sample(const netsim::BinnedUsage& truth, double phase_shift_hours, Rng& rng,
              Sink&& sink) const;

  [[nodiscard]] const DasuCollectorParams& params() const { return params_; }

 private:
  DasuCollectorParams params_;
  netsim::DiurnalModel diurnal_;
};

struct GatewayCollectorParams {
  double report_interval_s{3600.0};  ///< hourly WAN byte totals
};

class GatewayCollector {
 public:
  explicit GatewayCollector(GatewayCollectorParams params = {}) : params_{params} {}

  /// Aggregate ground truth into the gateway's reporting cadence, calling
  /// `sink` once per report; the last report covers what is left.
  template <typename Sink>
  void sample(const netsim::BinnedUsage& truth, Sink&& sink) const;

  [[nodiscard]] const GatewayCollectorParams& params() const { return params_; }

 private:
  GatewayCollectorParams params_;
};

template <typename Sink>
void DasuCollector::sample(const netsim::BinnedUsage& truth, double phase_shift_hours,
                           Rng& rng, Sink&& sink) const {
  if (truth.bins() == 0) return;

  const CounterReader counter{rng.bernoulli(params_.upnp_share)
                                  ? CounterKind::kUpnp32
                                  : CounterKind::kNetstat64};
  const int bits = counter.bits();
  const double sample_loss = params_.sample_loss;
  GridCalendar calendar{diurnal_.clock(), truth.start, truth.bin_width_s,
                        truth.bins()};
  // The host is up when u < floor + (1 - floor) * activity.
  netsim::DiurnalSqueeze availability{diurnal_.params(), params_.availability_floor,
                                      1.0 - params_.availability_floor};

  // Walk the ground-truth bins keeping true cumulative totals; a sample is
  // taken at a bin boundary only when the host is observed there. Missed
  // boundaries fold into the next delta (longer interval), exactly as a
  // polling client behaves across sleep or scheduling gaps.
  double true_down_total = 0.0;
  double true_up_total = 0.0;
  std::uint64_t last_down_reading = counter.read(0.0);
  std::uint64_t last_up_reading = counter.read(0.0);
  SimTime last_sample_time = truth.start;
  double bt_seconds_since = 0.0;

  for (std::size_t i = 0; i < truth.bins(); ++i) {
    true_down_total += truth.down_bytes[i];
    true_up_total += truth.up_bytes[i];
    bt_seconds_since += truth.bt_active_s[i];
    const SimTime boundary =
        truth.start + static_cast<double>(i + 1) * truth.bin_width_s;
    calendar.advance();

    const bool host_up = availability.below(rng.uniform(), boundary, [&] {
      return diurnal_.activity_at(calendar.hour_of_day(), calendar.is_weekend(),
                                  phase_shift_hours);
    });
    const bool sampled = host_up && !rng.bernoulli(sample_loss);
    if (!sampled) continue;

    const std::uint64_t down_reading = counter.read(true_down_total);
    const std::uint64_t up_reading = counter.read(true_up_total);
    const double interval = boundary - last_sample_time;
    sink(boundary, interval,
         rate_over(static_cast<double>(
                       counter_delta(last_down_reading, down_reading, bits)),
                   interval),
         rate_over(static_cast<double>(counter_delta(last_up_reading, up_reading, bits)),
                   interval),
         bt_seconds_since > 0.0);
    last_down_reading = down_reading;
    last_up_reading = up_reading;
    last_sample_time = boundary;
    bt_seconds_since = 0.0;
  }
}

template <typename Sink>
void GatewayCollector::sample(const netsim::BinnedUsage& truth, Sink&& sink) const {
  require(params_.report_interval_s > 0.0, "GatewayCollector: bad interval");
  if (truth.bins() == 0) return;
  const auto per_report = static_cast<std::size_t>(
      std::max(1.0, std::round(params_.report_interval_s / truth.bin_width_s)));

  double down_acc = 0.0;
  double up_acc = 0.0;
  std::size_t in_acc = 0;
  for (std::size_t i = 0; i < truth.bins(); ++i) {
    down_acc += truth.down_bytes[i];
    up_acc += truth.up_bytes[i];
    ++in_acc;
    const bool last = i + 1 == truth.bins();
    if (in_acc == per_report || last) {
      const double interval = static_cast<double>(in_acc) * truth.bin_width_s;
      const SimTime end = truth.start + static_cast<double>(i + 1) * truth.bin_width_s;
      // Gateways cannot see applications: no sample is flagged BitTorrent.
      sink(end, interval, rate_over(down_acc, interval), rate_over(up_acc, interval),
           false);
      down_acc = up_acc = 0.0;
      in_acc = 0;
    }
  }
}

}  // namespace bblab::measurement
