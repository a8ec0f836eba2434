// Structured end-of-run report.
//
// The CLI wraps each pipeline phase (dataset, analysis, output) in a
// ScopedPhase; at exit, write_run_report() merges the phase table with a
// Registry snapshot and process facts (peak RSS, wall clock) into a
// schema-versioned JSON document (--metrics-out), and write_summary()
// prints the same headline numbers as a few human-readable stderr
// lines. The schema is documented in DESIGN.md §10; bump
// kRunReportSchemaVersion whenever a field changes meaning.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace bblab::obs {

inline constexpr int kRunReportSchemaVersion = 1;

/// Record `ms` against phase `name` (phases accumulate: entering the
/// same phase twice sums the durations and bumps its count).
void record_phase_ms(const std::string& name, double ms);

/// RAII phase timer; also opens a span so phases show on the trace.
class ScopedPhase {
 public:
  explicit ScopedPhase(std::string name);
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase();

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  bool span_open_{false};
};

/// Peak resident set size in kB (getrusage ru_maxrss), 0 if unavailable.
[[nodiscard]] std::uint64_t peak_rss_kb();

/// Write the full schema-versioned run report as JSON:
///   {"schema":"bblab-run-report","schema_version":1,
///    "command":..., "exit_code":..., "wall_ms":...,
///    "peak_rss_kb":..., "phases":{...}, "counters":{...},
///    "per_worker":{...}, "gauges":{...}, "histograms":{...},
///    "spans":{"recorded":...,"dropped":...}}
/// `wall_ms` is measured from the first obs touch (process-epoch proxy).
void write_run_report(std::ostream& out, const std::string& command,
                      int exit_code);

/// A few stderr-style headline lines ("[obs] phases: ...", "[obs]
/// shards: ..."), for the CLI's end-of-run summary.
void write_summary(std::ostream& out);

/// Forget recorded phases. Test hygiene only.
void reset_phases_for_test();

}  // namespace bblab::obs
