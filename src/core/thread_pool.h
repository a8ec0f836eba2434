// Work-stealing thread pool and deterministic parallel_for.
//
// The simulation/analysis engine fans out per-household work across
// threads. Determinism is preserved by construction, not by locking
// discipline: every parallel task writes only to its own pre-allocated
// output slot, draws randomness only from an Rng substream forked by a
// stable stream id (Rng::fork), and results are merged in index order.
// Scheduling therefore never influences output — which frees the pool to
// schedule greedily: each worker owns a deque it pushes/pops LIFO, and
// idle workers steal FIFO from their peers. Stealing is what keeps
// heterogeneous task costs (a heavy BitTorrent user-day next to an idle
// one — a measured 9x spread) from serializing on a static partition.
//
// Threads that must wait for pool work (parallel_for's caller, a task
// that itself calls parallel_for) never block while tasks are runnable:
// they help-drain the queues instead, so nested parallelism on one pool
// cannot deadlock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bblab::core {

/// Most worker threads a command-line override may ask for
/// (`--threads`): far above any core count the pipeline runs on, and low
/// enough that a typo cannot make a pool spawn thousands of OS threads.
inline constexpr std::size_t kMaxThreads = 256;

class ThreadPool {
 public:
  /// Spawn `threads` workers; 0 means one per hardware thread.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueue a task. Called from one of this pool's workers, the task
  /// goes to that worker's own deque (LIFO, cache-warm); from any other
  /// thread it is distributed round-robin. Tasks must not block on other
  /// tasks — wait by help-draining (run_one) instead, as parallel_for
  /// does. Throws InvalidArgument once shutdown has begun: a task
  /// submitted after stop could be silently dropped, so it is rejected
  /// loudly instead.
  void submit(std::function<void()> task);

  /// Run one pending task on the calling thread, if any is queued:
  /// the help-drain primitive behind deadlock-free nested parallelism.
  /// Safe from any thread. Returns false when every deque is empty
  /// (tasks may still be executing on workers).
  bool run_one();

  /// Stop accepting work, drain every queued task, and join the workers.
  /// Idempotent; the destructor calls it. After shutdown, size() is 0 and
  /// submit() throws — previously a post-stop submit could silently park
  /// a task in a queue no worker would ever drain again.
  void shutdown();

  /// std::thread::hardware_concurrency with a floor of 1.
  [[nodiscard]] static std::size_t hardware_threads();

 private:
  /// One per worker: a mutex-guarded deque. Household-grained tasks are
  /// coarse (microseconds to milliseconds), so a tiny critical section
  /// per push/pop/steal is cheap and keeps the structure obviously
  /// correct; the win over the old single shared queue is that workers
  /// only contend when they actually steal.
  struct Queue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t index);
  /// Pop from queue `home` (back/LIFO if `own`), else steal FIFO from
  /// the others in ring order starting after `home`.
  bool try_pop(std::size_t home, bool own, std::function<void()>& task);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  /// Upper bound on tasks sitting in queues (incremented before push,
  /// decremented after pop): the sleep/wake and drain predicate.
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::size_t> next_queue_{0};  ///< round-robin external submits
  std::mutex sleep_mutex_;
  std::condition_variable cv_;
  std::atomic<bool> stop_{false};
};

/// Run `body(begin, end)` over a partition of [0, n) into contiguous
/// blocks, blocking until every block finished. The partition is a pure
/// function of (n, pool.size()) — several blocks per worker, so stealing
/// can rebalance skewed per-index costs — and blocks only ever touch
/// disjoint index ranges, so results are independent of which thread
/// runs which block and of steal order; any reduction the caller
/// performs over per-index slots afterwards is in index order and thus
/// deterministic too. The calling thread executes the first block, then
/// help-drains pool tasks instead of blocking, which makes nested
/// parallel_for on the same pool deadlock-free. The first exception
/// thrown by any block is rethrown here after all blocks have settled;
/// any further exceptions are counted and logged (WARN via core/logging)
/// before the rethrow, never silently swallowed.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace bblab::core
