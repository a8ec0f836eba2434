// Deterministic fault injection.
//
// The study's raw inputs were never clean: Dasu end hosts churned in and
// out, gateway collectors missed hours, UPnP counters wrapped and reset,
// host clocks drifted, and rows arrived duplicated or mangled. A
// FaultPlan reproduces that dirt on purpose — and deterministically. All
// randomness derives from Rng::fork substreams keyed by (plan seed,
// household stream id), so the same plan produces bit-identical faults at
// any thread count; every fault decision is drawn unconditionally in a
// fixed order, so turning one knob never perturbs the others' draws.
//
// The plan is applied at two layers: the measurement pipeline materializes
// per-household fault schedules (materialize) and the dataset layer
// mangles serialized CSV rows (corrupt_csv). Downstream, lenient ingest
// and the quarantine machinery (core/quarantine.h) must absorb all of it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/rng.h"

namespace bblab::core {
class Hasher;
}

namespace bblab::faults {

struct FaultPlan {
  std::uint64_t seed{0xFA173};

  /// Vantage-point churn: with this probability the host disappears for
  /// one contiguous outage (mean length mean_outage_hours, exponential)
  /// somewhere inside its observation window.
  double churn_probability{0.0};
  double mean_outage_hours{6.0};

  /// Collector-side blackout: the collector itself loses a window of
  /// samples (storage gap, upload failure) — same shape, separate knob.
  double blackout_probability{0.0};
  double mean_blackout_hours{2.0};

  /// Counter pathologies: one mid-window reset (the delta spanning it is
  /// unrecoverable) and one spurious wrap (+2^32-byte delta spike).
  double reset_probability{0.0};
  double spurious_wrap_probability{0.0};

  /// Clock skew: a constant offset, uniform in ±max_clock_skew_s, drawn
  /// per household. It changes no output: the demand summaries never read
  /// a sample's timestamp (DESIGN.md, "Deterministic fault injection").
  double clock_skew_probability{0.0};
  double max_clock_skew_s{120.0};

  /// Serialization faults, per CSV data row (the header is never touched):
  /// emit the row twice, overwrite one character, or cut the row short.
  double row_duplicate_probability{0.0};
  double row_corrupt_probability{0.0};
  double row_truncate_probability{0.0};

  /// Hard per-household failure (throws InjectedFault) — exercises the
  /// pipeline's quarantine isolation end to end.
  double household_failure_probability{0.0};

  [[nodiscard]] bool any_series_faults() const;
  [[nodiscard]] bool any_csv_faults() const;
  /// True when every probability is zero (clean data; nothing to do).
  [[nodiscard]] bool empty() const;

  /// "churn=0.1 blackout=0.05 ..." — only the non-zero knobs.
  [[nodiscard]] std::string summary() const;

  /// Feed every knob (seed included, declaration order) into a
  /// fingerprint hasher — the simulation cache's view of this plan. Two
  /// plans fingerprint equal iff they inject identical faults.
  void fingerprint(core::Hasher& hasher) const;

  /// Parse a "key=value,key=value" spec on top of `base` (defaults when
  /// omitted). Keys: churn, outage_h, blackout, blackout_h, reset, wrap,
  /// skew, skew_s, dup, corrupt, truncate, fail, seed. Throws
  /// InvalidArgument naming the key on an unknown key, an unparseable
  /// value, a probability outside [0, 1], an outage_h or blackout_h <= 0,
  /// or a skew_s < 0.
  [[nodiscard]] static FaultPlan parse(const std::string& spec);
  [[nodiscard]] static FaultPlan parse(const std::string& spec, FaultPlan base);
};

struct TimeWindow {
  double begin{0.0};
  double end{0.0};
  [[nodiscard]] bool contains(double t) const { return t >= begin && t < end; }
};

/// The materialized fault schedule for one household window — a pure
/// function of (plan, stream_id, t0, t1), independent of scheduling.
struct HouseholdFaults {
  std::vector<TimeWindow> dropped;  ///< outage + blackout sample drops
  std::optional<double> reset_time;
  std::optional<double> spurious_wrap_time;
  bool fail_household{false};

  [[nodiscard]] bool in_dropped(double t) const;
};

[[nodiscard]] HouseholdFaults materialize(const FaultPlan& plan,
                                          std::uint64_t stream_id, double t0,
                                          double t1);

/// Apply the plan's row-level serialization faults to CSV text. The first
/// line (header) passes through untouched; duplicated rows emit a clean
/// copy before the possibly-mangled one. Deterministic in (plan.seed,
/// salt). Rows are split on raw newlines, so fields with embedded
/// newlines may be cut mid-record — which is exactly the kind of damage
/// lenient ingest has to survive.
[[nodiscard]] std::string corrupt_csv(const std::string& text, const FaultPlan& plan,
                                      std::uint64_t salt = 0);

}  // namespace bblab::faults
