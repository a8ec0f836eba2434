// Byte counters, as the vantage points actually expose them.
//
// Dasu reads either UPnP byte counters from the home gateway — 32-bit
// values that wrap, with the quirks documented by DiCioccio et al. — or
// netstat counters on directly-connected hosts (64-bit). The FCC gateways
// export cumulative WAN byte totals. CounterReader turns a ground-truth
// cumulative byte sequence into what the instrument would report, and
// counter_delta recovers per-interval volumes including wrap handling.
#pragma once

#include <cstdint>

#include "core/error.h"

namespace bblab::measurement {

/// Recover the byte delta between two successive readings of a counter
/// with the given bit width (32 for UPnP, 64 for netstat). A single wrap
/// is assumed — valid when the sampling interval cannot carry 2^width
/// bytes, which holds for 30 s at any residential speed.
[[nodiscard]] inline std::uint64_t counter_delta(std::uint64_t previous,
                                                 std::uint64_t current, int bits = 32) {
  require(bits > 0 && bits <= 64, "counter_delta: bits must be in (0, 64]");
  if (bits == 64) {
    return current >= previous ? current - previous
                               : (~previous + 1) + current;  // one wrap
  }
  const std::uint64_t modulus = 1ULL << bits;
  require(previous < modulus && current < modulus,
          "counter_delta: reading exceeds counter width");
  return current >= previous ? current - previous : modulus - previous + current;
}

/// Wrap-or-reset disambiguation (the DiCioccio et al. "probe and pray"
/// problem): home gateways occasionally reboot, snapping the counter back
/// to ~zero, which is indistinguishable from a wrap by sign alone. The
/// heuristic: if interpreting the drop as a wrap implies a rate above
/// `max_plausible_rate_bps` over `interval_s`, it was a reset and the
/// interval's true delta is unknowable — report the post-reset count
/// (a lower bound) and flag it.
struct CounterStep {
  std::uint64_t bytes{0};
  bool reset_suspected{false};
};
[[nodiscard]] CounterStep counter_step(std::uint64_t previous, std::uint64_t current,
                                       int bits, double interval_s,
                                       double max_plausible_rate_bps);

enum class CounterKind {
  kUpnp32,    ///< 32-bit gateway counter (wraps every ~4.3 GB)
  kNetstat64, ///< host-local 64-bit counter
};

/// Simulates reading a cumulative counter of the given kind.
class CounterReader {
 public:
  explicit CounterReader(CounterKind kind) : kind_{kind} {}

  /// What the instrument reports for a true cumulative total: the total
  /// rounded half up (std::llround on [0, 2^63)), kept modulo 2^bits.
  [[nodiscard]] std::uint64_t read(double true_total_bytes) const {
    require(true_total_bytes >= 0.0 && true_total_bytes < 0x1p64,
            "CounterReader: totals are non-negative and below 2^64");
    // x - trunc(x) is exact for a double x, so comparing it with 0.5
    // rounds exactly, without a libm call.
    const auto whole = static_cast<std::uint64_t>(true_total_bytes);
    const double fraction = true_total_bytes - static_cast<double>(whole);
    const std::uint64_t total = whole + (fraction >= 0.5 ? 1 : 0);
    if (kind_ == CounterKind::kNetstat64) return total;
    return total & 0xFFFFFFFFULL;
  }

  /// Width in bits of the underlying counter.
  [[nodiscard]] int bits() const { return kind_ == CounterKind::kUpnp32 ? 32 : 64; }

  [[nodiscard]] CounterKind kind() const { return kind_; }

 private:
  CounterKind kind_;
};

}  // namespace bblab::measurement
