// Minimal leveled logger.
//
// The analysis binaries narrate long-running generation/matching phases;
// tests want silence. The level is a process-wide atomic and each message
// is emitted by a single fprintf call, so worker threads from
// core::ThreadPool may log concurrently without interleaving within a
// line.
#pragma once

#include <sstream>
#include <string>

namespace bblab {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Process-wide minimum level; messages below it are discarded.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// Emit one line to stderr if `level` passes the filter.
void log_message(LogLevel level, const std::string& message);

namespace detail {
template <typename... Args>
std::string concat(const Args&... args) {
  std::ostringstream os;
  ((os << args), ...);
  return os.str();
}
}  // namespace detail

template <typename... Args>
void log_debug(const Args&... args) {
  if (log_level() <= LogLevel::kDebug) log_message(LogLevel::kDebug, detail::concat(args...));
}
template <typename... Args>
void log_info(const Args&... args) {
  if (log_level() <= LogLevel::kInfo) log_message(LogLevel::kInfo, detail::concat(args...));
}
template <typename... Args>
void log_warn(const Args&... args) {
  if (log_level() <= LogLevel::kWarn) log_message(LogLevel::kWarn, detail::concat(args...));
}
template <typename... Args>
void log_error(const Args&... args) {
  if (log_level() <= LogLevel::kError) log_message(LogLevel::kError, detail::concat(args...));
}

}  // namespace bblab
