#include "stats/regression.h"

#include <cmath>

#include "core/error.h"
#include "stats/correlation.h"

namespace bblab::stats {

LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys) {
  require(xs.size() == ys.size(), "linear_fit: samples must have equal length");
  LinearFit fit;
  fit.n = xs.size();
  if (fit.n < 2) return fit;

  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < fit.n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(fit.n);
  my /= static_cast<double>(fit.n);

  double sxx = 0.0;
  double sxy = 0.0;
  for (std::size_t i = 0; i < fit.n; ++i) {
    const double dx = xs[i] - mx;
    sxx += dx * dx;
    sxy += dx * (ys[i] - my);
  }
  if (sxx <= 0.0) return fit;

  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r = pearson(xs, ys);
  fit.r_squared = fit.r * fit.r;

  if (fit.n > 2) {
    double sse = 0.0;
    for (std::size_t i = 0; i < fit.n; ++i) {
      const double e = ys[i] - fit.at(xs[i]);
      sse += e * e;
    }
    const double mse = sse / static_cast<double>(fit.n - 2);
    fit.slope_stderr = std::sqrt(mse / sxx);
  }
  return fit;
}

}  // namespace bblab::stats
