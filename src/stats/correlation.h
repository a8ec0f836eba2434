// Correlation coefficients.
//
// The paper quotes Pearson r for usage-vs-capacity (r >= 0.87, Fig. 2/3)
// and for price-vs-capacity regressions per market (66% of markets > 0.8).
#pragma once

#include <span>

namespace bblab::stats {

/// Pearson product-moment correlation of two equal-length samples.
/// Degenerate input (length < 2, or zero variance on either side) -> 0.
[[nodiscard]] double pearson(std::span<const double> xs, std::span<const double> ys);

}  // namespace bblab::stats
