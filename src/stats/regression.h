// Ordinary least squares.
//
// Section 6 of the paper fits, for every market, a linear regression of
// monthly price on plan capacity; the slope is the "cost of increasing
// capacity by 1 Mbps" that drives Fig. 10, Table 5, and Table 6: simple
// (y = a + b x) OLS with inference.
#pragma once

#include <cstddef>
#include <span>

namespace bblab::stats {

/// Result of fitting y = intercept + slope * x.
struct LinearFit {
  double slope{0.0};
  double intercept{0.0};
  double r{0.0};         ///< Pearson correlation of x and y.
  double r_squared{0.0};
  double slope_stderr{0.0};
  std::size_t n{0};

  /// Predicted value at x.
  [[nodiscard]] double at(double x) const { return intercept + slope * x; }
};

/// Fit by least squares. Requires xs.size() == ys.size(); fewer than two
/// points or zero x-variance yields a degenerate (all-zero) fit.
[[nodiscard]] LinearFit linear_fit(std::span<const double> xs,
                                   std::span<const double> ys);

}  // namespace bblab::stats
