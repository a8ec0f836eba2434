#include "obs/report.h"

#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <set>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"

namespace bblab::obs {

namespace {

struct PhaseEntry {
  std::string name;
  double ms{0.0};
  std::uint64_t count{0};
};

/// Phase table in first-entry order (matches pipeline order in the
/// report). Leaked singleton, same rationale as the Registry.
struct PhaseTable {
  std::mutex mutex;
  std::vector<PhaseEntry> entries;
};

PhaseTable& phase_table() {
  static PhaseTable* table = new PhaseTable;
  return *table;
}

/// Wall clock runs from the first obs touch; the CLI opens its first
/// ScopedPhase immediately after parse, so this tracks the run closely.
std::chrono::steady_clock::time_point process_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

/// SpanScope stores name pointers, so dynamic phase names must outlive
/// every buffer. Interned in a leaked node-based set: c_str() is stable.
const char* intern(const std::string& name) {
  static std::set<std::string>* names = new std::set<std::string>;
  static std::mutex* mutex = new std::mutex;
  const std::lock_guard<std::mutex> lock{*mutex};
  return names->insert(name).first->c_str();
}

void append_escaped(std::string& out, std::string_view s) {
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

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

std::uint64_t counter_or_zero(const Snapshot& snap, const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

}  // namespace

void record_phase_ms(const std::string& name, double ms) {
  PhaseTable& table = phase_table();
  const std::lock_guard<std::mutex> lock{table.mutex};
  for (PhaseEntry& e : table.entries) {
    if (e.name == name) {
      e.ms += ms;
      ++e.count;
      return;
    }
  }
  table.entries.push_back(PhaseEntry{name, ms, 1});
}

ScopedPhase::ScopedPhase(std::string name) : name_{std::move(name)} {
  (void)process_epoch();
  start_ = std::chrono::steady_clock::now();
  if (tracing_enabled()) {
    span_open_ = true;
    detail::span_enter(intern(name_), nullptr);
  }
}

ScopedPhase::~ScopedPhase() {
  const auto end = std::chrono::steady_clock::now();
  record_phase_ms(name_,
                  std::chrono::duration<double, std::milli>{end - start_}.count());
  if (span_open_) detail::span_exit();
}

std::uint64_t peak_rss_kb() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // kB on Linux
}

void write_run_report(std::ostream& out, const std::string& command,
                      int exit_code) {
  const double wall_ms =
      std::chrono::duration<double, std::milli>{
          std::chrono::steady_clock::now() - process_epoch()}
          .count();
  const Snapshot snap = Registry::instance().snapshot();

  std::string json;
  json += "{\n  \"schema\": \"bblab-run-report\",\n  \"schema_version\": ";
  json += std::to_string(kRunReportSchemaVersion);
  json += ",\n  \"command\": \"";
  append_escaped(json, command);
  json += "\",\n  \"exit_code\": ";
  json += std::to_string(exit_code);
  json += ",\n  \"wall_ms\": ";
  append_double(json, wall_ms);
  json += ",\n  \"peak_rss_kb\": ";
  json += std::to_string(peak_rss_kb());

  json += ",\n  \"phases\": {";
  {
    PhaseTable& table = phase_table();
    const std::lock_guard<std::mutex> lock{table.mutex};
    bool first = true;
    for (const PhaseEntry& e : table.entries) {
      if (!first) json += ',';
      first = false;
      json += "\n    \"";
      append_escaped(json, e.name);
      json += "\": {\"ms\": ";
      append_double(json, e.ms);
      json += ", \"count\": ";
      json += std::to_string(e.count);
      json += '}';
    }
    if (!first) json += "\n  ";
  }
  json += '}';

  json += ",\n  \"counters\": {";
  {
    bool first = true;
    for (const auto& [name, value] : snap.counters) {
      if (!first) json += ',';
      first = false;
      json += "\n    \"";
      append_escaped(json, name);
      json += "\": ";
      json += std::to_string(value);
    }
    if (!first) json += "\n  ";
  }
  json += '}';

  // Per-worker breakdowns only for the pool counters — slot indices for
  // other instruments depend on which thread happened to claim which
  // slot, which is noise, but pool workers bind slots in spawn order.
  json += ",\n  \"per_worker\": {";
  {
    bool first = true;
    for (const auto& [name, slots] : snap.counter_slots) {
      if (name.rfind("pool.", 0) != 0) continue;
      if (!first) json += ',';
      first = false;
      json += "\n    \"";
      append_escaped(json, name);
      json += "\": [";
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (i != 0) json += ", ";
        json += std::to_string(slots[i]);
      }
      json += ']';
    }
    if (!first) json += "\n  ";
  }
  json += '}';

  json += ",\n  \"gauges\": {";
  {
    bool first = true;
    for (const auto& [name, value] : snap.gauges) {
      if (!first) json += ',';
      first = false;
      json += "\n    \"";
      append_escaped(json, name);
      json += "\": ";
      append_double(json, value);
    }
    if (!first) json += "\n  ";
  }
  json += '}';

  json += ",\n  \"histograms\": {";
  {
    bool first = true;
    for (const auto& [name, data] : snap.histograms) {
      if (!first) json += ',';
      first = false;
      json += "\n    \"";
      append_escaped(json, name);
      json += "\": {\"bounds\": [";
      for (std::size_t i = 0; i < data.bounds.size(); ++i) {
        if (i != 0) json += ", ";
        append_double(json, data.bounds[i]);
      }
      json += "], \"counts\": [";
      for (std::size_t i = 0; i < data.counts.size(); ++i) {
        if (i != 0) json += ", ";
        json += std::to_string(data.counts[i]);
      }
      json += "], \"count\": ";
      json += std::to_string(data.count);
      json += ", \"sum\": ";
      append_double(json, data.sum);
      json += '}';
    }
    if (!first) json += "\n  ";
  }
  json += '}';

  json += ",\n  \"spans\": {\"recorded\": ";
  json += std::to_string(recorded_span_count());
  json += ", \"dropped\": ";
  json += std::to_string(dropped_span_count());
  json += "}\n}\n";

  out << json;
}

void write_summary(std::ostream& out) {
  const Snapshot snap = Registry::instance().snapshot();
  const double wall_ms =
      std::chrono::duration<double, std::milli>{
          std::chrono::steady_clock::now() - process_epoch()}
          .count();

  char line[384];
  std::snprintf(line, sizeof line, "[obs] wall %.1f ms | peak rss %" PRIu64 " kB\n",
                wall_ms, peak_rss_kb());
  out << line;

  {
    PhaseTable& table = phase_table();
    const std::lock_guard<std::mutex> lock{table.mutex};
    if (!table.entries.empty()) {
      std::string phases = "[obs] phases:";
      for (const PhaseEntry& e : table.entries) {
        std::snprintf(line, sizeof line, " %s %.1f ms", e.name.c_str(), e.ms);
        phases += line;
      }
      out << phases << '\n';
    }
  }

  std::snprintf(line, sizeof line,
                "[obs] shards: planned %" PRIu64 ", reused %" PRIu64
                ", simulated %" PRIu64 ", quarantined %" PRIu64
                ", published %" PRIu64 " (failed %" PRIu64 "), rejected %" PRIu64
                " | fs: read %" PRIu64 " B, wrote %" PRIu64 " B\n",
                counter_or_zero(snap, "shards.planned"),
                counter_or_zero(snap, "shards.reused"),
                counter_or_zero(snap, "shards.simulated"),
                counter_or_zero(snap, "shards.quarantined"),
                counter_or_zero(snap, "shards.published"),
                counter_or_zero(snap, "shards.publish_failed"),
                counter_or_zero(snap, "shards.rejected"),
                counter_or_zero(snap, "fs.bytes_read"),
                counter_or_zero(snap, "fs.bytes_written"));
  out << line;

  std::snprintf(line, sizeof line,
                "[obs] pool: tasks %" PRIu64 " (stolen %" PRIu64
                ") | retries: attempts %" PRIu64 ", backoff %" PRIu64 " ms\n",
                counter_or_zero(snap, "pool.tasks_executed"),
                counter_or_zero(snap, "pool.tasks_stolen"),
                counter_or_zero(snap, "retry.attempts"),
                counter_or_zero(snap, "retry.backoff_ms_total"));
  out << line;

  std::snprintf(line, sizeof line, "[obs] spans: %zu recorded, %zu dropped\n",
                recorded_span_count(), dropped_span_count());
  out << line;
}

void reset_phases_for_test() {
  PhaseTable& table = phase_table();
  const std::lock_guard<std::mutex> lock{table.mutex};
  table.entries.clear();
}

}  // namespace bblab::obs
