#include "measurement/collectors.h"

#include <cmath>

#include "core/error.h"

namespace bblab::measurement {

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

UsageSeries DasuCollector::collect(const netsim::BinnedUsage& truth,
                                   double phase_shift_hours, Rng& rng) const {
  UsageSeries series;
  series.samples.reserve(truth.bins());
  sample(truth, phase_shift_hours, rng,
         [&](SimTime time, double interval_s, Rate down, Rate up, bool bt_active) {
           series.samples.push_back(UsageSample{time, interval_s, down, up, bt_active});
         });
  return series;
}

UsageSummary DasuCollector::collect_summary(const netsim::BinnedUsage& truth,
                                            double phase_shift_hours, Rng& rng,
                                            SummaryColumns& scratch) const {
  scratch.clear();
  scratch.reserve(truth.bins());
  sample(truth, phase_shift_hours, rng,
         [&](SimTime, double, Rate down, Rate up, bool bt_active) {
           scratch.add(down, up, bt_active);
         });
  return summarize(scratch);
}

UsageSeries GatewayCollector::collect(const netsim::BinnedUsage& truth) const {
  require(params_.report_interval_s > 0.0, "GatewayCollector: bad interval");
  UsageSeries series;
  if (truth.bins() == 0) return series;
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
      UsageSample sample;
      sample.time = truth.start + static_cast<double>(i + 1) * truth.bin_width_s;
      sample.interval_s = interval;
      sample.down = rate_over(down_acc, interval);
      sample.up = rate_over(up_acc, interval);
      sample.bt_active = false;  // gateways cannot see applications
      series.samples.push_back(sample);
      down_acc = up_acc = 0.0;
      in_acc = 0;
    }
  }
  return series;
}

}  // namespace bblab::measurement
