// The skewed-workload scheduling model: work-stealing vs a static
// partition, shared by `perf_pipeline`'s BM_SkewedPipelineSchedule and
// the `skewed_schedule_test` ctest that gates it.
//
// The adversarial case for static contiguous partitioning: a few heavy
// households (prime-time BitTorrent, full-day traces) clustered at the
// front of the task list while the rest are near-idle. A static split
// hands every heavy task to worker 0; the stealing pool over-partitions
// into ~8 blocks per worker and idle workers steal the surplus.
//
// Wall-clock speedup is unmeasurable on a single-core machine, so each
// task's serial cost is measured once and both schedules are simulated
// over those costs: the makespans (ms) and their ratio are
// deterministic functions of the measured costs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "core/rng.h"
#include "measurement/pipeline.h"

namespace bblab::bench {

inline std::vector<measurement::HouseholdTask> skewed_tasks() {
  std::vector<measurement::HouseholdTask> tasks(48);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    auto& t = tasks[i];
    const bool heavy = i < 6;  // clustered: worst case for a static split
    t.link.down = Rate::from_mbps(heavy ? 100.0 : 8.0);
    t.link.up = Rate::from_mbps(heavy ? 10.0 : 1.0);
    t.link.rtt_ms = heavy ? 20.0 : 120.0;
    t.link.loss = 0.001;
    t.workload.intensity = heavy ? 3.0 : 0.05;
    t.workload.bt_sessions_per_day = heavy ? 6.0 : 0.0;
    t.bins = heavy ? 2880 : 120;
    t.collector = measurement::CollectorKind::kDasu;
    t.stream_id = 9000 + i;
  }
  return tasks;
}

/// Serial cost of each task in milliseconds (best of 3 runs).
inline std::vector<double> measure_task_costs(
    const measurement::PipelineToolkit& kit,
    std::span<const measurement::HouseholdTask> tasks) {
  const Rng base{2014};
  measurement::HouseholdWorkspace ws;
  std::vector<double> out(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      Rng rng = base.fork(tasks[i].stream_id);
      (void)measurement::simulate_household(kit, tasks[i], rng, ws);
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double, std::milli>{t1 - t0}.count());
    }
    out[i] = best;
  }
  return out;
}

/// Makespan of a static contiguous partition: ceil(n/workers) tasks per
/// worker, no stealing — the pre-work-stealing schedule.
inline double static_makespan(std::span<const double> costs, std::size_t workers) {
  const std::size_t n = costs.size();
  const std::size_t chunk = (n + workers - 1) / workers;
  double worst = 0.0;
  for (std::size_t w = 0; w * chunk < n; ++w) {
    double sum = 0.0;
    for (std::size_t i = w * chunk; i < std::min(n, (w + 1) * chunk); ++i) {
      sum += costs[i];
    }
    worst = std::max(worst, sum);
  }
  return worst;
}

/// Makespan of the stealing schedule: the same over-partitioning as
/// core::parallel_for (8 blocks per worker), blocks list-scheduled
/// greedily — a free worker always takes the next unclaimed block, which
/// is exactly what deque + steal converges to.
inline double steal_makespan(std::span<const double> costs, std::size_t workers) {
  const std::size_t n = costs.size();
  const std::size_t blocks = workers == 1 ? 1 : std::min(n, workers * 8);
  const std::size_t chunk = (n + blocks - 1) / blocks;
  std::vector<double> finish(workers, 0.0);
  for (std::size_t b = 0; b * chunk < n; ++b) {
    double sum = 0.0;
    for (std::size_t i = b * chunk; i < std::min(n, (b + 1) * chunk); ++i) {
      sum += costs[i];
    }
    *std::min_element(finish.begin(), finish.end()) += sum;
  }
  return *std::max_element(finish.begin(), finish.end());
}

}  // namespace bblab::bench
