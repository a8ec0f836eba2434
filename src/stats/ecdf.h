// Empirical cumulative distribution functions.
//
// Nearly half the paper's figures are CDFs (capacity, latency, loss,
// utilization, upgrade cost...). Ecdf owns a sorted copy of the sample and
// supports evaluation, inversion, and export of plot-ready (x, F(x)) series.
// Construction runs through stats::SortedColumn, so NaN elements (missing
// observations) are dropped and counted rather than poisoning the sort, and
// a presorted column — e.g. one adopted straight from a `.bbs` snapshot
// section — can be moved in without re-sorting.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "stats/column.h"

namespace bblab::stats {

class Ecdf {
 public:
  Ecdf() = default;
  /// Copy, NaN-filter, sort. The dropped-NaN count is kept (dropped()).
  explicit Ecdf(std::span<const double> sample);
  /// Adopt an already-filtered, already-sorted column without re-sorting.
  explicit Ecdf(SortedColumn&& column);

  [[nodiscard]] bool empty() const { return sorted_.empty(); }
  [[nodiscard]] std::size_t size() const { return sorted_.size(); }
  /// NaN elements removed at construction.
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

  /// F(x) = fraction of sample <= x. Empty ECDF -> 0.
  [[nodiscard]] double operator()(double x) const;

  /// Batched evaluation at ASCENDING query points: one linear merge over
  /// the sorted sample instead of a binary search per query. Throws
  /// EmptyColumn when the ECDF is empty — the batch form is for analysis
  /// tables that must not silently tabulate zeros from no data.
  void evaluate_sorted(std::span<const double> sorted_queries,
                       std::span<double> out) const;

  /// Inverse CDF (quantile function), linear interpolation, q in [0,1].
  /// Throws EmptyColumn on an empty ECDF.
  [[nodiscard]] double inverse(double q) const;

  [[nodiscard]] double min() const;  ///< throws EmptyColumn on empty
  [[nodiscard]] double max() const;  ///< throws EmptyColumn on empty

  /// Plot-ready series of (value, cumulative fraction) — one point per
  /// sample element, as a step-function upper trace.
  struct Point {
    double x;
    double f;
  };
  [[nodiscard]] std::vector<Point> points() const;

  /// Downsampled series for compact text rendering: the quantiles at
  /// `resolution` evenly spaced cumulative fractions.
  [[nodiscard]] std::vector<Point> sampled(std::size_t resolution) const;

  /// Render as a fixed set of quantile milestones ("p10=.. p25=.. ...") for
  /// the figures that print CDF shapes.
  [[nodiscard]] std::string summary() const;

  [[nodiscard]] const std::vector<double>& sorted() const { return sorted_; }

 private:
  std::vector<double> sorted_;
  std::size_t dropped_{0};
};

}  // namespace bblab::stats
