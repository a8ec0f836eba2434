// Per-shard deadlines and a watchdog reporter.
//
// A million-household run must not wedge because one shard hangs. True
// preemption of arbitrary C++ work is unsafe (a cancelled thread would
// leak locks and corrupt shared state), so cancellation here is
// cooperative and two-layered:
//
//   - Deadline: a cheap polled clock. Shard bodies check expired()
//     between households (each is microseconds-to-milliseconds of work)
//     and throw core::DeadlineExceeded, which StudyGenerator::generate()
//     converts into a quarantined shard — the run degrades, it never
//     wedges on a cooperative shard.
//   - Watchdog: a background thread that scans armed deadlines and
//     *reports* overruns to the log even when a shard is so stuck it
//     never reaches its next poll point — the operator sees which shard
//     hung and by how much, instead of a silent stall.
//
// Deadlines are wall-clock by nature, so a deadline-quarantined run is
// not byte-reproducible — which is why deadlines are off by default and
// the byte-identical guarantees apply to runs that finish undegraded.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace bblab::core {

/// A polled wall-clock budget. Default-constructed deadlines are
/// infinite (never expire); Deadline{0.0} expires at the first poll.
class Deadline {
 public:
  Deadline() = default;
  explicit Deadline(double seconds)
      : seconds_{seconds}, start_{std::chrono::steady_clock::now()}, finite_{true} {}

  [[nodiscard]] bool finite() const { return finite_; }
  [[nodiscard]] double seconds() const { return seconds_; }

  /// Seconds elapsed since the deadline was armed (0 for infinite).
  [[nodiscard]] double elapsed_s() const {
    if (!finite_) return 0.0;
    return std::chrono::duration<double>{std::chrono::steady_clock::now() - start_}
        .count();
  }

  [[nodiscard]] bool expired() const { return finite_ && elapsed_s() >= seconds_; }

 private:
  double seconds_{0.0};
  std::chrono::steady_clock::time_point start_{};
  bool finite_{false};
};

/// Background reporter for armed deadlines. watch() registers a deadline
/// under a label; the scan thread logs (once) when it expires, whether or
/// not the owner ever polls it. The returned Guard unregisters on
/// destruction, so a shard that finishes in time is never reported.
class Watchdog {
 public:
  explicit Watchdog(double scan_interval_s = 0.05);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  class Guard {
   public:
    Guard() = default;
    Guard(Watchdog* dog, std::uint64_t id) : dog_{dog}, id_{id} {}
    Guard(Guard&& other) noexcept { *this = std::move(other); }
    Guard& operator=(Guard&& other) noexcept {
      release();
      dog_ = other.dog_;
      id_ = other.id_;
      other.dog_ = nullptr;
      return *this;
    }
    ~Guard() { release(); }

   private:
    void release();
    Watchdog* dog_{nullptr};
    std::uint64_t id_{0};
  };

  /// Register `deadline` for reporting. The Deadline must outlive the
  /// Guard. Infinite deadlines are accepted and simply never fire.
  [[nodiscard]] Guard watch(std::string label, const Deadline& deadline);

  /// How many watched deadlines have been reported expired so far.
  [[nodiscard]] std::size_t expired_count() const {
    return expired_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::uint64_t id{0};
    std::string label;
    const Deadline* deadline{nullptr};
    bool reported{false};
  };

  void scan_loop();
  void unwatch(std::uint64_t id);

  const std::chrono::duration<double> interval_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Entry> entries_;
  std::uint64_t next_id_{1};
  bool stop_{false};
  std::atomic<std::size_t> expired_{0};
  std::thread thread_;
};

}  // namespace bblab::core
