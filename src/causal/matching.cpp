#include "causal/matching.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "core/error.h"
#include "obs/span.h"

namespace bblab::causal {

namespace {

// The per-covariate caliper test and relative gap. within_caliper,
// covariate_distance and the matching kernel all evaluate exactly these
// expressions, so the kernel agrees with the public definitions bit for bit.
inline bool caliper_holds(double a, double b, double caliper, double slack) {
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return !(std::fabs(a - b) > caliper * scale + slack);
}

inline double relative_gap(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-12});
  return std::fabs(a - b) / scale;
}

bool valid_tolerance(double x) { return std::isfinite(x) && x >= 0.0; }

/// A caliper-feasible control for one treated unit.
struct Candidate {
  double distance;
  std::size_t control;  ///< index into the caller's control table
};

/// The control table copied once into contiguous rows, ordered by the
/// first covariate (ties by index, so the order is a pure function of the
/// table).
struct ControlRows {
  std::vector<double> keys;         ///< covariate 0 of each row, ascending
  std::vector<double> rows;         ///< row-major, same order as keys
  std::vector<std::size_t> index;   ///< control-table index of each row
};

ControlRows sorted_controls(const UnitTable& control) {
  const std::size_t n = control.size();
  const std::size_t dim = control.dim();
  ControlRows out;
  out.index.resize(n);
  std::iota(out.index.begin(), out.index.end(), std::size_t{0});
  std::sort(out.index.begin(), out.index.end(), [&](std::size_t a, std::size_t b) {
    const double ka = control.covariates(a)[0];
    const double kb = control.covariates(b)[0];
    return ka != kb ? ka < kb : a < b;
  });
  out.keys.resize(n);
  out.rows.resize(n * dim);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = control.covariates(out.index[i]);
    out.keys[i] = row[0];
    std::copy(row.begin(), row.end(), out.rows.begin() + static_cast<std::ptrdiff_t>(i * dim));
  }
  return out;
}

// Band pruning applies up to this caliper. Above it the rounding margin
// the band needs (DESIGN.md, "Matching kernel") could exceed kBandPad, so
// every control is scanned; the result is the same either way.
constexpr double kMaxBandCaliper = 0.99;
constexpr double kBandPad = 1e-9;

/// Scans each treated unit's covariate-0 band of the sorted controls and
/// appends its caliper-feasible controls to an arena, sorted by
/// (distance, control).
class BandScan {
 public:
  BandScan(const MatcherOptions& options, const ControlRows& controls, std::size_t dim)
      : controls_{controls}, dim_{dim}, caliper_{options.caliper},
        prune_{options.caliper <= kMaxBandCaliper} {
    slack_.reserve(dim);
    for (std::size_t j = 0; j < dim; ++j) slack_.push_back(options.slack_for(j));
  }

  /// Scan treated units [begin, end), writing offsets[t] = where unit t's
  /// candidates start in `arena`.
  void operator()(const UnitTable& treated, std::size_t begin, std::size_t end,
                  std::vector<Candidate>& arena, std::span<std::size_t> offsets) const {
    switch (dim_) {
      case 1: return scan<1>(treated, begin, end, arena, offsets);
      case 2: return scan<2>(treated, begin, end, arena, offsets);
      case 3: return scan<3>(treated, begin, end, arena, offsets);
      case 4: return scan<4>(treated, begin, end, arena, offsets);
      default: return scan<0>(treated, begin, end, arena, offsets);
    }
  }

 private:
  /// D is the covariate dimension, or 0 for "dim_ at run time".
  template <std::size_t D>
  void scan(const UnitTable& treated, std::size_t begin, std::size_t end,
            std::vector<Candidate>& arena, std::span<std::size_t> offsets) const {
    const std::size_t dim = D == 0 ? dim_ : D;
    const double* slack = slack_.data();
    for (std::size_t t = begin; t < end; ++t) {
      offsets[t] = arena.size();
      const double* a = treated.covariates(t).data();
      const auto [lo, hi] = band(a[0]);
      const double* b = controls_.rows.data() + lo * dim;
      for (std::size_t i = lo; i < hi; ++i, b += dim) {
        std::size_t j = 0;
        while (j < dim && caliper_holds(a[j], b[j], caliper_, slack[j])) ++j;
        if (j < dim) continue;
        double sum = 0.0;
        for (j = 0; j < dim; ++j) sum += relative_gap(a[j], b[j]);
        arena.push_back({sum / static_cast<double>(dim), controls_.index[i]});
      }
      std::sort(arena.begin() + static_cast<std::ptrdiff_t>(offsets[t]), arena.end(),
                [](const Candidate& x, const Candidate& y) {
                  return x.distance != y.distance ? x.distance < y.distance
                                                  : x.control < y.control;
                });
    }
  }

  /// Rows [lo, hi) whose first covariate lies within the widened radius
  /// of a0: a superset of the controls that pass covariate 0's caliper.
  [[nodiscard]] std::pair<std::size_t, std::size_t> band(double a0) const {
    const auto& keys = controls_.keys;
    if (!prune_) return {0, keys.size()};
    const double r = (caliper_ * std::fabs(a0) + slack_[0]) / (1.0 - caliper_);
    const double radius =
        r + kBandPad * (r + std::fabs(a0)) + std::numeric_limits<double>::min();
    const auto lo = std::lower_bound(keys.begin(), keys.end(), a0 - radius);
    const auto hi = std::upper_bound(lo, keys.end(), a0 + radius);
    return {static_cast<std::size_t>(lo - keys.begin()),
            static_cast<std::size_t>(hi - keys.begin())};
  }

  const ControlRows& controls_;
  std::size_t dim_;
  double caliper_;
  bool prune_;
  std::vector<double> slack_;
};

/// Greedy selection over per-treated candidate lists (arena segments
/// [offsets[t], offsets[t+1]), each sorted by (distance, control)). A
/// min-heap holds each unmatched treated unit's best candidate whose
/// control was free when it was pushed, keyed (distance, treated,
/// control): a k-way merge of the lists, so pairs pop in exactly the
/// order a sort of every feasible pair would give (DESIGN.md).
std::vector<MatchedPair> greedy_select(std::span<const Candidate> arena,
                                       std::span<const std::size_t> offsets,
                                       std::size_t n_control) {
  const std::size_t nt = offsets.size() - 1;
  const auto later = [](const MatchedPair& x, const MatchedPair& y) {
    if (x.distance != y.distance) return x.distance > y.distance;
    if (x.treated_index != y.treated_index) return x.treated_index > y.treated_index;
    return x.control_index > y.control_index;
  };
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<MatchedPair> heap;
  heap.reserve(nt);
  for (std::size_t t = 0; t < nt; ++t) {
    if (offsets[t] < offsets[t + 1]) {
      heap.push_back({t, arena[offsets[t]].control, arena[offsets[t]].distance});
    }
  }
  std::make_heap(heap.begin(), heap.end(), later);

  std::vector<char> control_used(n_control, 0);
  std::vector<MatchedPair> pairs;
  pairs.reserve(std::min(heap.size(), n_control));
  while (!heap.empty() && pairs.size() < n_control) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const MatchedPair head = heap.back();
    heap.pop_back();
    if (control_used[head.control_index] == 0) {
      control_used[head.control_index] = 1;
      pairs.push_back(head);
      continue;
    }
    // Taken control: move to this unit's next candidate with a free one.
    // Skipped candidates' controls stay taken, so the global order would
    // have discarded them as well.
    const std::size_t t = head.treated_index;
    std::size_t& k = cursor[t];
    do {
      ++k;
    } while (k < offsets[t + 1] && control_used[arena[k].control] != 0);
    if (k < offsets[t + 1]) {
      heap.push_back({t, arena[k].control, arena[k].distance});
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  return pairs;
}

}  // namespace

void UnitTable::push_back(double outcome, std::span<const double> covariates,
                          std::size_t tag) {
  require(covariates.size() == dim_, "UnitTable: covariate dimension mismatch");
  for (const double v : covariates) {
    require(std::isfinite(v), "UnitTable: covariates must be finite");
  }
  outcomes_.push_back(outcome);
  values_.insert(values_.end(), covariates.begin(), covariates.end());
  tags_.push_back(tag);
}

void UnitTable::reserve(std::size_t units) {
  outcomes_.reserve(units);
  values_.reserve(units * dim_);
  tags_.reserve(units);
}

bool within_caliper(std::span<const double> a, std::span<const double> b,
                    const MatcherOptions& options) {
  require(a.size() == b.size(), "within_caliper: covariate dimension mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!caliper_holds(a[i], b[i], options.caliper, options.slack_for(i))) return false;
  }
  return true;
}

double covariate_distance(std::span<const double> a, std::span<const double> b) {
  require(a.size() == b.size(), "covariate_distance: dimension mismatch");
  if (a.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += relative_gap(a[i], b[i]);
  return sum / static_cast<double>(a.size());
}

CaliperMatcher::CaliperMatcher(MatcherOptions options) : options_{std::move(options)} {
  require(valid_tolerance(options_.caliper),
          "CaliperMatcher: caliper must be finite and non-negative");
  require(valid_tolerance(options_.absolute_slack),
          "CaliperMatcher: absolute_slack must be finite and non-negative");
  for (const double s : options_.absolute_slacks) {
    require(valid_tolerance(s),
            "CaliperMatcher: absolute_slacks must be finite and non-negative");
  }
}

std::vector<MatchedPair> CaliperMatcher::match(const UnitTable& treated,
                                               const UnitTable& control,
                                               core::ThreadPool* pool) const {
  OBS_SPAN("causal.match");
  if (treated.empty() || control.empty()) return {};
  require(treated.dim() == control.dim(),
          "match: treated and control covariate dimensions differ");
  require(treated.dim() > 0, "match: units need at least one covariate");

  const ControlRows controls = sorted_controls(control);
  const BandScan scan{options_, controls, treated.dim()};
  const std::size_t nt = treated.size();
  std::vector<std::size_t> offsets(nt + 1, 0);
  std::vector<Candidate> arena;
  if (pool != nullptr && nt > 1) {
    // Contiguous blocks of treated units, each with its own arena; the
    // arenas concatenate in block order into exactly the serial layout.
    const std::size_t blocks = std::min(nt, 4 * std::max<std::size_t>(1, pool->size()));
    const auto first = [&](std::size_t b) { return nt * b / blocks; };
    std::vector<std::vector<Candidate>> parts(blocks);
    core::parallel_for(*pool, blocks, [&](std::size_t b0, std::size_t b1) {
      for (std::size_t b = b0; b < b1; ++b) {
        scan(treated, first(b), first(b + 1), parts[b], offsets);
      }
    });
    std::size_t total = 0;
    for (const auto& part : parts) total += part.size();
    arena.reserve(total);
    for (std::size_t b = 0; b < blocks; ++b) {
      for (std::size_t t = first(b); t < first(b + 1); ++t) offsets[t] += arena.size();
      arena.insert(arena.end(), parts[b].begin(), parts[b].end());
    }
  } else {
    scan(treated, 0, nt, arena, offsets);
  }
  offsets[nt] = arena.size();
  return greedy_select(arena, offsets, control.size());
}

std::vector<double> standardized_mean_differences(const UnitTable& treated,
                                                  const UnitTable& control,
                                                  std::span<const MatchedPair> pairs) {
  if (pairs.empty()) return {};
  const std::size_t k = treated.dim();
  std::vector<double> smd(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    double mt = 0.0;
    double mc = 0.0;
    for (const auto& p : pairs) {
      mt += treated.covariates(p.treated_index)[j];
      mc += control.covariates(p.control_index)[j];
    }
    const auto n = static_cast<double>(pairs.size());
    mt /= n;
    mc /= n;
    double vt = 0.0;
    double vc = 0.0;
    for (const auto& p : pairs) {
      const double dt = treated.covariates(p.treated_index)[j] - mt;
      const double dc = control.covariates(p.control_index)[j] - mc;
      vt += dt * dt;
      vc += dc * dc;
    }
    vt /= std::max(1.0, n - 1.0);
    vc /= std::max(1.0, n - 1.0);
    const double pooled = std::sqrt((vt + vc) / 2.0);
    smd[j] = pooled > 0.0 ? (mt - mc) / pooled : 0.0;
  }
  return smd;
}

}  // namespace bblab::causal
