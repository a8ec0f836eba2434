#include "obs/span.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <ostream>
#include <string_view>
#include <vector>

namespace bblab::obs {

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::size_t> g_capacity{8192};

/// One completed span. `name` is a string literal (the OBS_SPAN argument)
/// so storing the pointer is safe and allocation-free; `label` is the
/// optional dynamic detail, copied only when tracing is on.
struct SpanEvent {
  const char* name;
  std::string label;
  std::uint64_t start_us;
  std::uint64_t dur_us;
  std::uint32_t depth;
};

/// An open (not yet exited) span on a thread's stack.
struct OpenSpan {
  const char* name;
  std::string label;
  std::uint64_t start_us;
};

/// Per-thread buffer: the owner pushes/pops under `mutex`, exporters and
/// the watchdog read under the same mutex. Contention is nil in practice
/// (exports happen at end of run, watchdog scans are seconds apart).
struct ThreadBuffer {
  std::mutex mutex;
  std::uint32_t tid{0};
  std::vector<SpanEvent> events;   ///< completed spans, bounded
  std::vector<OpenSpan> open;      ///< innermost last
  std::size_t capacity{0};
  std::uint64_t dropped{0};
};

/// Global list of every thread's buffer; buffers are never removed (a
/// thread's spans must survive its exit so the end-of-run export sees
/// them), so memory is bounded by capacity x cumulative thread count.
/// Leaked for the usual static-destruction-order reason.
struct BufferRegistry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid{1};
};

BufferRegistry& buffer_registry() {
  static BufferRegistry* reg = new BufferRegistry;
  return *reg;
}

/// Common epoch so timestamps from different threads interleave
/// correctly on the trace timeline.
std::chrono::steady_clock::time_point trace_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - trace_epoch())
          .count());
}

ThreadBuffer& thread_buffer() {
  thread_local ThreadBuffer* buffer = [] {
    BufferRegistry& reg = buffer_registry();
    const std::lock_guard<std::mutex> lock{reg.mutex};
    reg.buffers.push_back(std::make_unique<ThreadBuffer>());
    ThreadBuffer* b = reg.buffers.back().get();
    b->tid = reg.next_tid++;
    b->capacity = g_capacity.load(std::memory_order_relaxed);
    b->events.reserve(std::min<std::size_t>(b->capacity, 256));
    return b;
  }();
  return *buffer;
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

}  // namespace

void set_tracing(bool on) noexcept {
  if (on) (void)trace_epoch();  // pin the epoch before the first span
  g_tracing.store(on, std::memory_order_relaxed);
}

bool tracing_enabled() noexcept {
  return g_tracing.load(std::memory_order_relaxed);
}

void set_trace_capacity(std::size_t spans_per_thread) noexcept {
  g_capacity.store(spans_per_thread, std::memory_order_relaxed);
}

void add_trace_capacity(std::size_t spans) noexcept {
  BufferRegistry& reg = buffer_registry();
  const std::lock_guard<std::mutex> lock{reg.mutex};
  g_capacity.fetch_add(spans, std::memory_order_relaxed);
  for (const auto& buf : reg.buffers) {
    const std::lock_guard<std::mutex> block{buf->mutex};
    buf->capacity += spans;
  }
}

namespace detail {

void span_enter(const char* name, const std::string* label) noexcept {
  ThreadBuffer& buf = thread_buffer();
  const std::uint64_t start = now_us();
  const std::lock_guard<std::mutex> lock{buf.mutex};
  buf.open.push_back(OpenSpan{name, label ? *label : std::string{}, start});
}

void span_exit() noexcept {
  const std::uint64_t end = now_us();
  ThreadBuffer& buf = thread_buffer();
  const std::lock_guard<std::mutex> lock{buf.mutex};
  if (buf.open.empty()) return;  // exit without enter: gate flipped mid-span
  OpenSpan top = std::move(buf.open.back());
  buf.open.pop_back();
  if (buf.events.size() >= buf.capacity) {
    ++buf.dropped;
    return;
  }
  buf.events.push_back(SpanEvent{top.name, std::move(top.label), top.start_us,
                                 end - top.start_us,
                                 static_cast<std::uint32_t>(buf.open.size())});
}

}  // namespace detail

std::size_t recorded_span_count() {
  BufferRegistry& reg = buffer_registry();
  const std::lock_guard<std::mutex> lock{reg.mutex};
  std::size_t total = 0;
  for (const auto& buf : reg.buffers) {
    const std::lock_guard<std::mutex> block{buf->mutex};
    total += buf->events.size();
  }
  return total;
}

std::size_t dropped_span_count() {
  BufferRegistry& reg = buffer_registry();
  const std::lock_guard<std::mutex> lock{reg.mutex};
  std::size_t total = 0;
  for (const auto& buf : reg.buffers) {
    const std::lock_guard<std::mutex> block{buf->mutex};
    total += buf->dropped;
  }
  return total;
}

std::string open_span_report() {
  BufferRegistry& reg = buffer_registry();
  const std::lock_guard<std::mutex> lock{reg.mutex};
  std::string out;
  for (const auto& buf : reg.buffers) {
    const std::lock_guard<std::mutex> block{buf->mutex};
    if (buf->open.empty()) continue;
    const OpenSpan& inner = buf->open.back();
    if (!out.empty()) out += "; ";
    out += "tid ";
    out += std::to_string(buf->tid);
    out += ": ";
    out += inner.name;
    if (!inner.label.empty()) {
      out += '(';
      out += inner.label;
      out += ')';
    }
  }
  return out;
}

void write_chrome_trace(std::ostream& out) {
  // Snapshot under locks into a string, then stream once: keeps the
  // locked region free of stream-operator surprises.
  std::string json;
  json += "{\"traceEvents\":[";
  bool first = true;
  BufferRegistry& reg = buffer_registry();
  const std::lock_guard<std::mutex> lock{reg.mutex};
  for (const auto& buf : reg.buffers) {
    const std::lock_guard<std::mutex> block{buf->mutex};
    for (const SpanEvent& ev : buf->events) {
      if (!first) json += ',';
      first = false;
      json += "\n{\"name\":\"";
      append_json_escaped(json, ev.name);
      json += "\",\"cat\":\"bblab\",\"ph\":\"X\",\"ts\":";
      json += std::to_string(ev.start_us);
      json += ",\"dur\":";
      json += std::to_string(ev.dur_us);
      json += ",\"pid\":1,\"tid\":";
      json += std::to_string(buf->tid);
      if (!ev.label.empty()) {
        json += ",\"args\":{\"detail\":\"";
        append_json_escaped(json, ev.label);
        json += "\"}";
      }
      json += '}';
    }
    if (buf->dropped != 0) {
      // Surface truncation in-band so a clipped trace is never mistaken
      // for a complete one.
      if (!first) json += ',';
      first = false;
      json += "\n{\"name\":\"[dropped ";
      json += std::to_string(buf->dropped);
      json += " spans]\",\"cat\":\"bblab\",\"ph\":\"I\",\"ts\":0,\"pid\":1,\"tid\":";
      json += std::to_string(buf->tid);
      json += ",\"s\":\"t\"}";
    }
  }
  json += "\n],\"displayTimeUnit\":\"ms\"}\n";
  out << json;
}

void reset_spans_for_test() {
  BufferRegistry& reg = buffer_registry();
  const std::lock_guard<std::mutex> lock{reg.mutex};
  for (const auto& buf : reg.buffers) {
    const std::lock_guard<std::mutex> block{buf->mutex};
    buf->events.clear();
    buf->dropped = 0;
    buf->capacity = g_capacity.load(std::memory_order_relaxed);
  }
}

}  // namespace bblab::obs
