// Fluid (processor-sharing) access-link simulator.
//
// Packet-level simulation is three orders of magnitude more work than the
// 30-second byte counters the paper analyzes can justify. The standard
// flow-level abstraction is used instead: concurrent flows share the link
// by max-min fair water-filling, each flow additionally bounded by its
// application rate cap and its TCP-achievable rate. The simulator is
// event-driven — state changes only at flow arrivals, completions, and
// session expiries — and integrates exact per-flow rates into fixed-width
// byte-count bins, which is precisely what the measurement layer samples.
//
// The event loop is the dominant cost of the whole system (every
// household-window in every figure/table runs through it), so it is
// engineered to be allocation-free in steady state: all scratch lives in
// a caller-owned FluidWorkspace, the cap-sorted water-fill order is
// maintained incrementally across events instead of re-sorted per step,
// rates are recomputed only when the active set changes, and
// TCP-achievable caps are memoized per (app, direction) key. The output
// contract is byte-exact equality with the straightforward
// recompute-everything engine (run_reference), which
// tests/fluid_differential_test.cpp enforces on randomized workloads —
// this is what keeps bbstore cache fingerprints and thread-count
// determinism valid across the optimization.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/time.h"
#include "netsim/flow.h"
#include "netsim/link.h"
#include "netsim/tcp_model.h"

namespace bblab::netsim {

/// Byte counters aggregated into fixed-width bins over an observation
/// window — the simulator's ground-truth output.
struct BinnedUsage {
  SimTime start{0.0};
  double bin_width_s{30.0};
  std::vector<double> down_bytes;
  std::vector<double> up_bytes;
  /// Seconds within each bin during which at least one BitTorrent flow was
  /// active (the Dasu analysis filters "not active on BitTorrent" periods).
  std::vector<double> bt_active_s;

  [[nodiscard]] std::size_t bins() const { return down_bytes.size(); }
  [[nodiscard]] SimTime bin_time(std::size_t i) const {
    return start + (static_cast<double>(i) + 0.5) * bin_width_s;
  }
  [[nodiscard]] bool bt_active(std::size_t i) const { return bt_active_s[i] > 0.0; }

  /// Downlink rate of bin i.
  [[nodiscard]] Rate down_rate(std::size_t i) const {
    return rate_over(down_bytes[i], bin_width_s);
  }
  [[nodiscard]] Rate up_rate(std::size_t i) const {
    return rate_over(up_bytes[i], bin_width_s);
  }
};

/// Water-filling allocation: distribute `capacity_bps` across flows with
/// per-flow caps `caps_bps`, max-min fair. Ties in cap are processed in
/// input order, so the result is a deterministic function of the input
/// sequence. Returns per-flow rates. Exposed for unit testing.
[[nodiscard]] std::vector<double> water_fill(double capacity_bps,
                                             std::span<const double> caps_bps);

/// Caller-owned scratch state for FluidLinkSimulator::run. One workspace
/// serves any number of sequential run() calls (different flow sets,
/// windows, even different simulators): every internal buffer is cleared
/// but keeps its capacity, so after warm-up the event loop performs zero
/// heap allocations. Not thread-safe — use one workspace per thread (the
/// measurement pipeline creates one per parallel_for block).
class FluidWorkspace {
 public:
  FluidWorkspace() = default;

 private:
  friend class FluidLinkSimulator;

  /// One admitted flow. Slots live in a stable arena (never compacted
  /// mid-run); the per-direction order vectors below index into it.
  struct Slot {
    const Flow* flow{nullptr};
    double remaining_bytes{0.0};  ///< volume-bound flows (inf otherwise)
    SimTime end_time{0.0};        ///< duration-bound flows (inf otherwise)
    double cap_bps{0.0};
    double rate_bps{0.0};
    std::uint64_t seq{0};  ///< admission sequence; breaks cap ties stably
    bool finished{false};
  };

  struct DirState {
    std::vector<std::uint32_t> admit_order;  ///< slot ids, admission order
    std::vector<std::uint32_t> cap_order;    ///< slot ids, ascending (cap, seq)
    /// Set on admit / retire; water-fill rates are recomputed
    /// only when this is set (identical values would be recomputed
    /// otherwise, so skipping preserves byte-exact output).
    bool dirty{false};

    void clear() {
      admit_order.clear();
      cap_order.clear();
      dirty = false;
    }
  };

  void reset() {
    slots_.clear();
    free_slots_.clear();
    down_.clear();
    up_.clear();
    cap_memo_valid_.fill(0);
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  DirState down_;
  DirState up_;
  /// Memoized min(link capacity, TCP parallel throughput) keyed by
  /// (app, direction): 6 x 2 entries, reset per run.
  std::array<double, 12> cap_memo_{};
  std::array<std::uint8_t, 12> cap_memo_valid_{};
};

class FluidLinkSimulator {
 public:
  explicit FluidLinkSimulator(AccessLink link, TcpModel tcp = TcpModel{});

  /// Simulate `flows` (must be sorted by start time; checked in debug
  /// builds only — the workload generator emits sorted flows) over the
  /// window [window_start, window_start + bins * bin_width) and return the
  /// binned byte counters. Flows overlapping the window edges are clipped.
  /// This overload allocates a fresh workspace per call; hot callers
  /// should hold a FluidWorkspace and use the overload below.
  [[nodiscard]] BinnedUsage run(std::span<const Flow> flows, SimTime window_start,
                                std::size_t bins, double bin_width_s = 30.0) const;

  /// Workspace-reusing overload: identical output, zero steady-state
  /// allocations once `workspace`'s buffers have warmed up.
  [[nodiscard]] BinnedUsage run(std::span<const Flow> flows, SimTime window_start,
                                std::size_t bins, double bin_width_s,
                                FluidWorkspace& workspace) const;

  /// The pre-optimization engine: per-step heap-allocated water-fill with
  /// a full sort, caps recomputed through the TCP model from scratch.
  /// Byte-identical to run(); kept as the differential-test oracle and as
  /// the baseline perf_fluid times the incremental engine against.
  [[nodiscard]] BinnedUsage run_reference(std::span<const Flow> flows,
                                          SimTime window_start, std::size_t bins,
                                          double bin_width_s = 30.0) const;

  [[nodiscard]] const AccessLink& link() const { return link_; }

  /// Per-flow ceiling: min(app cap, TCP-achievable rate for this app's
  /// connection behavior, link capacity).
  [[nodiscard]] double flow_cap_bps(const Flow& flow) const;

 private:
  /// min(link capacity, TCP parallel throughput) for an app/direction —
  /// the memoizable part of flow_cap_bps.
  [[nodiscard]] double path_cap_bps(AppKind app, Direction direction) const;

  AccessLink link_;
  TcpModel tcp_;
};

}  // namespace bblab::netsim
