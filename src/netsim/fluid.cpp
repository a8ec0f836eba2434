#include "netsim/fluid.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/error.h"
#include "obs/metrics.h"

namespace bblab::netsim {

std::string app_label(AppKind kind) {
  switch (kind) {
    case AppKind::kWeb: return "web";
    case AppKind::kVideo: return "video";
    case AppKind::kBulk: return "bulk";
    case AppKind::kBitTorrent: return "bittorrent";
    case AppKind::kVoip: return "voip";
    case AppKind::kBackground: return "background";
  }
  return "?";
}

std::vector<double> water_fill(double capacity_bps, std::span<const double> caps_bps) {
  require(capacity_bps >= 0.0, "water_fill: capacity must be non-negative");
  const std::size_t n = caps_bps.size();
  std::vector<double> rates(n, 0.0);
  if (n == 0) return rates;

  // Process flows in ascending cap order; every still-unsatisfied flow
  // gets an equal share of what remains, but never more than its cap.
  // Ties break by input position so the allocation is a deterministic
  // function of the input sequence (equal caps still receive equal rates
  // up to the last ulp of the running division).
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (caps_bps[a] != caps_bps[b]) return caps_bps[a] < caps_bps[b];
    return a < b;
  });

  double remaining = capacity_bps;
  std::size_t left = n;
  for (const std::size_t i : order) {
    const double share = remaining / static_cast<double>(left);
    const double r = std::min(caps_bps[i], share);
    rates[i] = r;
    remaining -= r;
    --left;
  }
  return rates;
}

FluidLinkSimulator::FluidLinkSimulator(AccessLink link, TcpModel tcp)
    : link_{link}, tcp_{tcp} {
  require(link_.valid(), "FluidLinkSimulator: invalid link");
}

namespace {

/// Connection parallelism by application: browsers open a handful of
/// connections, BitTorrent dozens — which is why P2P saturates lossy
/// links that single-connection apps cannot.
int connections_for(AppKind app) {
  switch (app) {
    case AppKind::kWeb: return 4;
    case AppKind::kVideo: return 2;
    case AppKind::kBulk: return 4;
    case AppKind::kBitTorrent: return 24;
    case AppKind::kVoip: return 1;
    case AppKind::kBackground: return 1;
  }
  return 1;
}

}  // namespace

double FluidLinkSimulator::path_cap_bps(AppKind app, Direction direction) const {
  const double capacity =
      direction == Direction::kDown ? link_.down.bps() : link_.up.bps();
  return std::min(capacity,
                  tcp_.parallel_throughput(link_, connections_for(app)).bps());
}

double FluidLinkSimulator::flow_cap_bps(const Flow& flow) const {
  double cap = path_cap_bps(flow.app, flow.direction);
  if (flow.rate_cap.bps() > 0.0) cap = std::min(cap, flow.rate_cap.bps());
  return std::max(cap, 1.0);  // keep strictly positive so flows always drain
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Integrate `rate_bytes_per_s` over [t0, t1) into the bins of `usage`.
/// Callers guarantee t0 >= window_start (the event loop never runs before
/// the window opens), so the bin index is a simple integer cursor: the
/// entry index is computed once and bumped per crossed boundary, instead
/// of re-deriving floor((t - start) / width) and a division per segment.
void accumulate(std::vector<double>& bins, SimTime window_start, double bin_width,
                SimTime t0, SimTime t1, double rate_bytes_per_s) {
  if (t1 <= t0 || rate_bytes_per_s <= 0.0) return;
  const std::size_t nbins = bins.size();
  auto idx = static_cast<std::size_t>(
      std::floor((t0 - window_start) / bin_width));
  SimTime t = t0;
  while (t < t1 && idx < nbins) {
    const SimTime bin_end =
        window_start + (static_cast<double>(idx) + 1.0) * bin_width;
    const SimTime seg_end = std::min(t1, bin_end);
    bins[idx] += rate_bytes_per_s * (seg_end - t);
    t = seg_end;
    if (seg_end != bin_end) break;  // t1 landed inside this bin
    ++idx;
  }
}

/// The original per-segment floor/division form, kept as the oracle for
/// the integer-cursor rewrite above (exercised through run_reference by
/// the differential property test).
/// One amendment over the historical code: when the bin width is not
/// exactly representable, floor((t - start) / width) at a point sitting
/// exactly on a computed boundary can round back to the bin just crossed,
/// making bin_end == t — an empty segment that never advances, i.e. an
/// infinite loop. The guard below bumps past it; on every input where the
/// historical form terminated it never fires, and when it does fire it
/// lands the segment in the same bin the integer cursor picks.
void accumulate_reference(std::vector<double>& bins, SimTime window_start,
                          double bin_width, SimTime t0, SimTime t1,
                          double rate_bytes_per_s) {
  if (t1 <= t0 || rate_bytes_per_s <= 0.0) return;
  const auto nbins = bins.size();
  SimTime t = t0;
  while (t < t1) {
    auto idx_f = std::floor((t - window_start) / bin_width);
    SimTime bin_end = window_start + (idx_f + 1.0) * bin_width;
    if (bin_end == t) {
      idx_f += 1.0;
      bin_end = window_start + (idx_f + 1.0) * bin_width;
    }
    if (idx_f >= static_cast<double>(nbins)) break;
    const auto idx = static_cast<std::size_t>(std::max(0.0, idx_f));
    const SimTime seg_end = std::min(t1, bin_end);
    if (idx_f >= 0.0) bins[idx] += rate_bytes_per_s * (seg_end - t);
    t = seg_end;
  }
}

struct ActiveFlow {
  const Flow* flow;
  double remaining_bytes;  // volume-bound flows
  SimTime end_time;        // duration-bound flows (inf for volume-bound)
  double cap_bps;
  double rate_bps{0.0};
};

/// A volume flow counts as drained when its residual would empty within a
/// microsecond at its current rate — an absolute byte threshold alone can
/// sit below what a ULP-sized time step is able to subtract.
template <typename F>
bool flow_finished(const F& f, SimTime step_end) {
  const bool drained = f.remaining_bytes < kInf &&
                       (f.remaining_bytes <= 1e-6 ||
                        f.remaining_bytes <= f.rate_bps / 8.0 * 1e-6);
  return drained || f.end_time <= step_end + 1e-12;
}

void require_window(std::size_t bins, double bin_width_s) {
  require(bins > 0, "FluidLinkSimulator::run: need at least one bin");
  require(bin_width_s > 0.0, "FluidLinkSimulator::run: bin width must be positive");
}

/// Zeroed bins over [window_start, window_start + bins * bin_width_s).
BinnedUsage empty_usage(SimTime window_start, std::size_t bins, double bin_width_s) {
  BinnedUsage usage;
  usage.start = window_start;
  usage.bin_width_s = bin_width_s;
  usage.down_bytes.assign(bins, 0.0);
  usage.up_bytes.assign(bins, 0.0);
  usage.bt_active_s.assign(bins, 0.0);
  return usage;
}

}  // namespace

BinnedUsage FluidLinkSimulator::run(std::span<const Flow> flows, SimTime window_start,
                                    std::size_t bins, double bin_width_s) const {
  FluidWorkspace workspace;
  return run(flows, window_start, bins, bin_width_s, workspace);
}

BinnedUsage FluidLinkSimulator::run(std::span<const Flow> flows, SimTime window_start,
                                    std::size_t bins, double bin_width_s,
                                    FluidWorkspace& ws) const {
  require_window(bins, bin_width_s);
#ifndef NDEBUG
  // O(n) precondition scan, debug builds only: the workload generator
  // already emits sorted flows, so release builds skip the pass.
  require(std::is_sorted(flows.begin(), flows.end(),
                         [](const Flow& a, const Flow& b) { return a.start < b.start; }),
          "FluidLinkSimulator::run: flows must be sorted by start time");
#endif
  // Once per run() call (not per bin/flow): this is the pipeline's
  // hottest entry point, so instrumentation stays at call granularity.
  static obs::Counter& runs = obs::Registry::instance().counter("fluid.runs");
  static obs::Counter& flow_count = obs::Registry::instance().counter("fluid.flows");
  static obs::Counter& bin_count = obs::Registry::instance().counter("fluid.bins");
  runs.add();
  flow_count.add(flows.size());
  bin_count.add(bins);

  BinnedUsage usage = empty_usage(window_start, bins, bin_width_s);
  const SimTime window_end = window_start + static_cast<double>(bins) * bin_width_s;

  ws.reset();
  auto& slots = ws.slots_;
  auto& down = ws.down_;
  auto& up = ws.up_;
  std::size_t next_flow = 0;
  std::uint64_t next_seq = 0;
  std::size_t bt_active = 0;

  // Memoized min(capacity, TCP parallel throughput): the key space per
  // link is tiny (app x direction), so the Mathis-model evaluation runs
  // once per distinct key instead of once per flow.
  const auto memo_cap = [&](AppKind app, Direction dir) {
    const std::size_t key =
        static_cast<std::size_t>(app) * 2 + (dir == Direction::kUp ? 1 : 0);
    if (ws.cap_memo_valid_[key] == 0) {
      ws.cap_memo_[key] = path_cap_bps(app, dir);
      ws.cap_memo_valid_[key] = 1;
    }
    return ws.cap_memo_[key];
  };
  // Bit-identical to flow_cap_bps(flow).
  const auto slot_cap = [&](const Flow& flow) {
    double cap = memo_cap(flow.app, flow.direction);
    if (flow.rate_cap.bps() > 0.0) cap = std::min(cap, flow.rate_cap.bps());
    return std::max(cap, 1.0);
  };

  const auto cap_before = [&](std::uint32_t a, std::uint32_t b) {
    const auto& sa = slots[a];
    const auto& sb = slots[b];
    if (sa.cap_bps != sb.cap_bps) return sa.cap_bps < sb.cap_bps;
    return sa.seq < sb.seq;
  };

  // Max-min water-fill over the incrementally maintained cap order —
  // the same running-share arithmetic as water_fill(), minus the sort
  // and the three per-call vector allocations.
  const auto reassign = [&](FluidWorkspace::DirState& d, double capacity_bps) {
    double remaining = capacity_bps;
    std::size_t left = d.cap_order.size();
    for (const std::uint32_t id : d.cap_order) {
      auto& s = slots[id];
      const double share = remaining / static_cast<double>(left);
      const double r = std::min(s.cap_bps, share);
      s.rate_bps = r;
      remaining -= r;
      --left;
    }
    d.dirty = false;
  };

  const auto retire_finished = [&](FluidWorkspace::DirState& d, SimTime step_end) {
    bool any = false;
    for (const std::uint32_t id : d.admit_order) {
      auto& s = slots[id];
      if (flow_finished(s, step_end)) {
        s.finished = true;
        any = true;
        if (s.flow->app == AppKind::kBitTorrent) --bt_active;
        ws.free_slots_.push_back(id);
      }
    }
    if (!any) return;
    const auto finished = [&](std::uint32_t id) { return slots[id].finished; };
    std::erase_if(d.admit_order, finished);
    std::erase_if(d.cap_order, finished);
    d.dirty = true;
  };

  SimTime now = flows.empty() ? window_end : std::min(flows.front().start, window_end);
  now = std::max(now, window_start);

  while (now < window_end) {
    // Admit every flow that has started by `now`.
    while (next_flow < flows.size() && flows[next_flow].start <= now) {
      const Flow& f = flows[next_flow++];
      SimTime end_time = kInf;
      double remaining_bytes = kInf;
      if (f.volume_bound()) {
        remaining_bytes = f.volume_bytes;
      } else {
        // A duration-bound session whose end has already passed (it
        // started before the window, or an idle fast-forward jumped over
        // it) must not enter the active set — it would steal water-fill
        // share from live flows for one step.
        end_time = f.start + f.duration_s;
        if (end_time <= now) continue;
      }
      std::uint32_t id;
      if (!ws.free_slots_.empty()) {
        id = ws.free_slots_.back();
        ws.free_slots_.pop_back();
      } else {
        id = static_cast<std::uint32_t>(slots.size());
        slots.emplace_back();
      }
      auto& s = slots[id];
      s.flow = &f;
      s.remaining_bytes = remaining_bytes;
      s.end_time = end_time;
      s.cap_bps = slot_cap(f);
      s.rate_bps = 0.0;
      s.seq = next_seq++;
      s.finished = false;
      auto& d = f.direction == Direction::kDown ? down : up;
      d.admit_order.push_back(id);
      d.cap_order.insert(
          std::upper_bound(d.cap_order.begin(), d.cap_order.end(), id, cap_before),
          id);
      d.dirty = true;
      if (f.app == AppKind::kBitTorrent) ++bt_active;
    }

    // Rates change only when the active set does (a flow's cap is fixed at
    // admission); between such events the water-fill would recompute identical values, so the
    // dirty flag skips it without affecting output.
    if (down.dirty) reassign(down, link_.down.bps());
    if (up.dirty) reassign(up, link_.up.bps());

    // Next state change: the earliest of the next arrival, any volume
    // completion at current rates, any session expiry, or window end.
    SimTime next_event = window_end;
    if (next_flow < flows.size()) {
      next_event = std::min(next_event, flows[next_flow].start);
    }
    for (const auto* d : {&down, &up}) {
      for (const std::uint32_t id : d->admit_order) {
        const auto& s = slots[id];
        if (s.end_time < kInf) next_event = std::min(next_event, s.end_time);
        if (s.remaining_bytes < kInf && s.rate_bps > 0.0) {
          next_event =
              std::min(next_event, now + s.remaining_bytes / (s.rate_bps / 8.0));
        }
      }
    }
    // Guard against zero-length steps from simultaneous events. The floor
    // must stay above the double ULP at simulation timescales (a 3-year
    // clock reaches ~1e8 s, where the ULP is ~1.5e-8 s): a microsecond
    // floor guarantees progress and is far below any bin width we use.
    next_event = std::max(next_event, now + 1e-6);
    const SimTime step_end = std::min(next_event, window_end);
    const double dt = step_end - now;

    // Integrate rates over [now, step_end), in admission order so the
    // per-bin floating-point sums match the reference engine exactly.
    for (const std::uint32_t id : down.admit_order) {
      auto& s = slots[id];
      accumulate(usage.down_bytes, window_start, bin_width_s, now, step_end,
                 s.rate_bps / 8.0);
      if (s.remaining_bytes < kInf) s.remaining_bytes -= s.rate_bps / 8.0 * dt;
    }
    for (const std::uint32_t id : up.admit_order) {
      auto& s = slots[id];
      accumulate(usage.up_bytes, window_start, bin_width_s, now, step_end,
                 s.rate_bps / 8.0);
      if (s.remaining_bytes < kInf) s.remaining_bytes -= s.rate_bps / 8.0 * dt;
    }
    if (bt_active > 0) {
      accumulate(usage.bt_active_s, window_start, bin_width_s, now, step_end, 1.0);
    }

    retire_finished(down, step_end);
    retire_finished(up, step_end);

    now = step_end;
    // Fast-forward through idle gaps.
    if (down.admit_order.empty() && up.admit_order.empty()) {
      if (next_flow >= flows.size()) break;
      now = std::max(now, std::min(flows[next_flow].start, window_end));
    }
  }
  return usage;
}

// Slow, simple, obviously correct: the oracle the engine above is
// differentially tested against.
BinnedUsage FluidLinkSimulator::run_reference(std::span<const Flow> flows,
                                              SimTime window_start, std::size_t bins,
                                              double bin_width_s) const {
  require_window(bins, bin_width_s);
  BinnedUsage usage = empty_usage(window_start, bins, bin_width_s);
  const SimTime window_end = window_start + static_cast<double>(bins) * bin_width_s;

  std::vector<ActiveFlow> down_active;
  std::vector<ActiveFlow> up_active;
  std::size_t next_flow = 0;

  const auto reassign = [&](std::vector<ActiveFlow>& active, double capacity_bps) {
    std::vector<double> caps;
    caps.reserve(active.size());
    for (const auto& f : active) caps.push_back(f.cap_bps);
    const auto rates = water_fill(capacity_bps, caps);
    for (std::size_t i = 0; i < active.size(); ++i) active[i].rate_bps = rates[i];
  };

  SimTime now = flows.empty() ? window_end : std::min(flows.front().start, window_end);
  now = std::max(now, window_start);

  while (now < window_end) {
    // Admit every flow that has started by `now`.
    while (next_flow < flows.size() && flows[next_flow].start <= now) {
      const Flow& f = flows[next_flow++];
      ActiveFlow af;
      af.flow = &f;
      af.cap_bps = flow_cap_bps(f);
      if (f.volume_bound()) {
        af.remaining_bytes = f.volume_bytes;
        af.end_time = kInf;
      } else {
        af.remaining_bytes = kInf;
        af.end_time = f.start + f.duration_s;
        if (af.end_time <= now) continue;
      }
      (f.direction == Direction::kDown ? down_active : up_active).push_back(af);
    }
    // Rates change whenever the active set does; recomputing every step is
    // what the incremental engine's dirty flag avoids.
    reassign(down_active, link_.down.bps());
    reassign(up_active, link_.up.bps());

    SimTime next_event = window_end;
    if (next_flow < flows.size()) {
      next_event = std::min(next_event, flows[next_flow].start);
    }
    for (const auto* active : {&down_active, &up_active}) {
      for (const auto& f : *active) {
        if (f.end_time < kInf) next_event = std::min(next_event, f.end_time);
        if (f.remaining_bytes < kInf && f.rate_bps > 0.0) {
          next_event = std::min(next_event, now + f.remaining_bytes / (f.rate_bps / 8.0));
        }
      }
    }
    next_event = std::max(next_event, now + 1e-6);
    const SimTime step_end = std::min(next_event, window_end);
    const double dt = step_end - now;

    for (auto& f : down_active) {
      accumulate_reference(usage.down_bytes, window_start, bin_width_s, now,
                           step_end, f.rate_bps / 8.0);
      if (f.remaining_bytes < kInf) f.remaining_bytes -= f.rate_bps / 8.0 * dt;
    }
    for (auto& f : up_active) {
      accumulate_reference(usage.up_bytes, window_start, bin_width_s, now,
                           step_end, f.rate_bps / 8.0);
      if (f.remaining_bytes < kInf) f.remaining_bytes -= f.rate_bps / 8.0 * dt;
    }
    const bool bt_now =
        std::any_of(down_active.begin(), down_active.end(),
                    [](const ActiveFlow& f) { return f.flow->app == AppKind::kBitTorrent; }) ||
        std::any_of(up_active.begin(), up_active.end(),
                    [](const ActiveFlow& f) { return f.flow->app == AppKind::kBitTorrent; });
    if (bt_now) {
      accumulate_reference(usage.bt_active_s, window_start, bin_width_s, now,
                           step_end, 1.0);
    }

    const auto finished = [&](const ActiveFlow& f) { return flow_finished(f, step_end); };
    std::erase_if(down_active, finished);
    std::erase_if(up_active, finished);

    now = step_end;
    if (down_active.empty() && up_active.empty()) {
      if (next_flow >= flows.size()) break;
      now = std::max(now, std::min(flows[next_flow].start, window_end));
    }
  }
  return usage;
}

}  // namespace bblab::netsim
