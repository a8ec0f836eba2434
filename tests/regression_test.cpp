#include "stats/regression.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/error.h"
#include "core/rng.h"

namespace bblab::stats {
namespace {

TEST(LinearFit, RecoversExactLine) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.5 * i);
  }
  const auto fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 2.5, 1e-12);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
  EXPECT_NEAR(fit.r, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit.slope_stderr, 0.0, 1e-9);
  EXPECT_NEAR(fit.at(100.0), 253.0, 1e-9);
}

TEST(LinearFit, RecoversNoisyLine) {
  Rng rng{3};
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(0, 100);
    xs.push_back(x);
    ys.push_back(20.0 + 0.96 * x + rng.normal(0, 5));
  }
  const auto fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 0.96, 0.01);
  EXPECT_NEAR(fit.intercept, 20.0, 0.5);
  EXPECT_GT(fit.r, 0.98);
  EXPECT_GT(fit.slope_stderr, 0.0);
  // Slope should be within ~4 standard errors of the truth.
  EXPECT_LT(std::abs(fit.slope - 0.96), 4 * fit.slope_stderr);
}

TEST(LinearFit, DegenerateInputs) {
  const auto tiny = linear_fit(std::vector<double>{1}, std::vector<double>{2});
  EXPECT_DOUBLE_EQ(tiny.slope, 0.0);
  const auto flat =
      linear_fit(std::vector<double>{2, 2, 2}, std::vector<double>{1, 2, 3});
  EXPECT_DOUBLE_EQ(flat.slope, 0.0);
  EXPECT_THROW(linear_fit(std::vector<double>{1, 2}, std::vector<double>{1}),
               InvalidArgument);
}

}  // namespace
}  // namespace bblab::stats
