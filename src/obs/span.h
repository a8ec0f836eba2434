// Scoped tracing spans with per-thread ring buffers.
//
// OBS_SPAN("simulate_shard") opens a span for the enclosing scope; when
// tracing is disabled (the default) the constructor is one relaxed
// atomic load and an untaken branch — no clock read, no lock, no
// allocation, so instrumented hot paths cost ~nothing in production.
// When enabled, enter/exit read the steady clock and record a completed
// span into the calling thread's ring buffer (bounded: once full, new
// spans are counted as dropped rather than growing memory).
//
// Buffers are registered globally so two consumers can see them:
//   - write_chrome_trace() exports every recorded span as Chrome
//     trace_event "X" (complete) events — load the file in Perfetto or
//     chrome://tracing.
//   - open_span_report() names each thread's currently-open innermost
//     span; the Watchdog appends it to stall reports so a hung shard is
//     identified by what it is *doing*, not just its label.
//
// Spans never feed back into simulation: tracing on/off must not change
// a single output byte (asserted by determinism_md5_test.sh).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace bblab::obs {

/// Runtime gate. Enable before the traced work; spans opened while
/// disabled are not recorded (a span that straddles the switch records
/// only if its *open* saw tracing enabled).
void set_tracing(bool on) noexcept;
[[nodiscard]] bool tracing_enabled() noexcept;

/// Per-thread ring capacity in spans. Applies to buffers created after
/// the call; default 8192 (~0.5 MB/thread at full).
void set_trace_capacity(std::size_t spans_per_thread) noexcept;

/// Make room for `spans` more spans on every thread: raises the capacity
/// of every existing buffer and of buffers created later. For a producer
/// that knows how many spans a batch of work records, any share of which
/// may land on one thread. Memory still grows only with recorded spans.
void add_trace_capacity(std::size_t spans) noexcept;

/// Totals across every thread buffer (recorded excludes dropped).
[[nodiscard]] std::size_t recorded_span_count();
[[nodiscard]] std::size_t dropped_span_count();

/// "tid 2: simulate_shard; tid 5: cache.store" — each thread's innermost
/// open span, empty string when nothing is open. Cheap enough for a
/// watchdog scan.
[[nodiscard]] std::string open_span_report();

/// Export every recorded span as Chrome trace_event JSON (the
/// `{"traceEvents": [...]}` object form).
void write_chrome_trace(std::ostream& out);

/// Drop all recorded spans (open-span stacks survive: their owners still
/// hold SpanScopes). Test hygiene only.
void reset_spans_for_test();

namespace detail {
void span_enter(const char* name, const std::string* label) noexcept;
void span_exit() noexcept;
}  // namespace detail

/// RAII span. Use through OBS_SPAN; `label` (optional) is copied only
/// when tracing is enabled and lands in the trace event's args.
class SpanScope {
 public:
  explicit SpanScope(const char* name) noexcept {
    if (tracing_enabled()) {
      active_ = true;
      detail::span_enter(name, nullptr);
    }
  }
  SpanScope(const char* name, const std::string& label) noexcept {
    if (tracing_enabled()) {
      active_ = true;
      detail::span_enter(name, &label);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (active_) detail::span_exit();
  }

 private:
  bool active_{false};
};

#define BBLAB_OBS_CONCAT2(a, b) a##b
#define BBLAB_OBS_CONCAT(a, b) BBLAB_OBS_CONCAT2(a, b)
/// OBS_SPAN("name") or OBS_SPAN("name", label_string).
#define OBS_SPAN(...) \
  ::bblab::obs::SpanScope BBLAB_OBS_CONCAT(obs_span_, __LINE__) { __VA_ARGS__ }

}  // namespace bblab::obs
