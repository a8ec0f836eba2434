#include "stats/correlation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/error.h"
#include "core/rng.h"

namespace bblab::stats {
namespace {

TEST(Pearson, PerfectLinearRelationships) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> up{2, 4, 6, 8, 10};
  const std::vector<double> down{10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, up), 1.0, 1e-12);
  EXPECT_NEAR(pearson(xs, down), -1.0, 1e-12);
}

TEST(Pearson, DegenerateInputsAreZero) {
  EXPECT_DOUBLE_EQ(pearson(std::vector<double>{1}, std::vector<double>{2}), 0.0);
  EXPECT_DOUBLE_EQ(
      pearson(std::vector<double>{1, 1, 1}, std::vector<double>{1, 2, 3}), 0.0);
}

TEST(Pearson, MismatchedLengthsThrow) {
  EXPECT_THROW((void)pearson(std::vector<double>{1, 2}, std::vector<double>{1}),
               InvalidArgument);
}

TEST(Pearson, IndependentSamplesNearZero) {
  Rng rng{3};
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(rng.normal());
    ys.push_back(rng.normal());
  }
  EXPECT_NEAR(pearson(xs, ys), 0.0, 0.02);
}

TEST(Pearson, KnownValue) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> ys{2, 1, 4, 3, 5};
  EXPECT_NEAR(pearson(xs, ys), 0.8, 1e-12);
}

}  // namespace
}  // namespace bblab::stats
