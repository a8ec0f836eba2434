// Quantiles and percentiles.
//
// The paper's headline usage metric is the 95th percentile of the 30-second
// demand time series ("peak usage"); medians and interquartile ranges show
// up in every dataset characterization. We use the linear-interpolation
// estimator (R type 7, the numpy/matplotlib default the paper's plots used).
#pragma once

#include <span>
#include <vector>

namespace bblab::stats {

/// Quantile q in [0,1] of an UNSORTED sample: quantile_select on a copy.
/// NaN elements are treated as missing and dropped; empty (or all-NaN)
/// input -> 0.
[[nodiscard]] double quantile(std::span<const double> xs, double q);

/// Quantile of an already-sorted (ascending) sample; no allocation.
/// Throws EmptyColumn when the sample is empty (there is no element 0 to
/// read) and InvalidArgument if an interpolated element is NaN (NaN
/// cannot be sorted — filter missing values before calling).
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double q);

/// Several quantiles of one already-sorted sample — the batched core
/// behind figure summary rows: one pass of index
/// arithmetic, no re-sorting, no allocation beyond the result. Same
/// empty/NaN contract as quantile_sorted.
[[nodiscard]] std::vector<double> quantiles_sorted(std::span<const double> sorted,
                                                   std::span<const double> qs);

/// quantile(xs, q) in place, for a caller that owns a scratch buffer:
/// NaNs dropped, empty -> 0, O(n) by selection and no allocation; leaves
/// `xs` in an unspecified order. Type 7 reads only the order statistics
/// at floor(h) and floor(h)+1, so nth_element plus a min over the upper
/// part gives quantile_sorted's value on the sorted sample bit for bit
/// (signed zeros may come out in either order, and every mix of them
/// interpolates to the same value).
[[nodiscard]] double quantile_select(std::span<double> xs, double q);

/// Convenience percentile wrappers.
[[nodiscard]] inline double median(std::span<const double> xs) { return quantile(xs, 0.5); }
[[nodiscard]] inline double p95(std::span<const double> xs) { return quantile(xs, 0.95); }

/// Several quantiles in one sort. NaNs dropped as in quantile().
[[nodiscard]] std::vector<double> quantiles(std::span<const double> xs,
                                            std::span<const double> qs);

}  // namespace bblab::stats
