#include "measurement/counters.h"

namespace bblab::measurement {

CounterStep counter_step(std::uint64_t previous, std::uint64_t current, int bits,
                         double interval_s, double max_plausible_rate_bps) {
  require(interval_s > 0.0, "counter_step: interval must be positive");
  require(max_plausible_rate_bps > 0.0, "counter_step: rate bound must be positive");
  CounterStep step;
  const std::uint64_t as_wrap = counter_delta(previous, current, bits);
  const double implied_bps = static_cast<double>(as_wrap) * 8.0 / interval_s;
  if (current < previous && implied_bps > max_plausible_rate_bps) {
    // A wrap this fast is impossible on this line: the device rebooted.
    // Bytes since the reset are all we can still account for.
    step.bytes = current;
    step.reset_suspected = true;
  } else {
    step.bytes = as_wrap;
  }
  return step;
}

}  // namespace bblab::measurement
