#include "stats/quantile.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/error.h"
#include "stats/column.h"

namespace bblab::stats {

namespace {

/// R type 7 on n >= 1 order statistics: h = (n-1) q, interpolated between
/// the values at floor(h) and floor(h)+1 (clamped to the last).
/// `bracket(lo)` returns that pair, so sorted and unsorted input share
/// one formula.
template <typename Bracket>
double type7(std::size_t n, double q, Bracket&& bracket) {
  const double h = static_cast<double>(n - 1) * q;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto [at_lo, at_hi] = bracket(lo);
  if (n == 1) return at_lo;
  return at_lo + (h - static_cast<double>(lo)) * (at_hi - at_lo);
}

}  // namespace

double quantile_sorted(std::span<const double> sorted, double q) {
  require(q >= 0.0 && q <= 1.0, "quantile: q must be in [0,1]");
  if (sorted.empty()) {
    throw EmptyColumn{
        "quantile_sorted: empty column (all inputs NaN-filtered away?)"};
  }
  return type7(sorted.size(), q, [&](std::size_t lo) {
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    require(!std::isnan(sorted[lo]) && !std::isnan(sorted[hi]),
            "quantile_sorted: input contains NaN (filter missing values first)");
    return std::pair{sorted[lo], sorted[hi]};
  });
}

std::vector<double> quantiles_sorted(std::span<const double> sorted,
                                     std::span<const double> qs) {
  std::vector<double> out;
  out.reserve(qs.size());
  for (const double q : qs) out.push_back(quantile_sorted(sorted, q));
  return out;
}

double quantile(std::span<const double> xs, double q) {
  std::vector<double> copy(xs.begin(), xs.end());
  return quantile_select(copy, q);
}

double quantile_select(std::span<double> xs, double q) {
  require(q >= 0.0 && q <= 1.0, "quantile: q must be in [0,1]");
  const std::size_t n = remove_nan(xs);
  if (n == 0) return 0.0;  // documented lenient contract for unsorted input
  // Type 7 reads only two order statistics: select the lower one, and the
  // upper one is the minimum of what nth_element left above it.
  return type7(n, q, [&](std::size_t lo) {
    const auto nth = xs.begin() + static_cast<std::ptrdiff_t>(lo);
    const auto last = xs.begin() + static_cast<std::ptrdiff_t>(n);
    std::nth_element(xs.begin(), nth, last);
    return std::pair{*nth, nth + 1 < last ? *std::min_element(nth + 1, last) : *nth};
  });
}

std::vector<double> quantiles(std::span<const double> xs, std::span<const double> qs) {
  const auto copy = sorted_finite(xs);
  if (copy.empty()) return std::vector<double>(qs.size(), 0.0);
  return quantiles_sorted(copy, qs);
}

}  // namespace bblab::stats
