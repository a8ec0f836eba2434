#include "stats/quantile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "stats/column.h"

namespace bblab::stats {
namespace {

TEST(Quantile, MedianOfOddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4, 1, 2, 3}), 2.5);
}

TEST(Quantile, Extremes) {
  const std::vector<double> xs{5, 1, 9, 3};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 9.0);
}

TEST(Quantile, Type7Interpolation) {
  // R: quantile(c(1,2,3,4), 0.95, type=7) == 3.85
  EXPECT_NEAR(quantile(std::vector<double>{1, 2, 3, 4}, 0.95), 3.85, 1e-12);
  // quantile(1:5, 0.25) == 2
  EXPECT_DOUBLE_EQ(quantile(std::vector<double>{1, 2, 3, 4, 5}, 0.25), 2.0);
}

TEST(Quantile, EdgeCases) {
  EXPECT_DOUBLE_EQ(quantile(std::vector<double>{}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile(std::vector<double>{7}, 0.9), 7.0);
  EXPECT_THROW((void)quantile(std::vector<double>{1, 2}, 1.5), InvalidArgument);
  EXPECT_THROW((void)quantile(std::vector<double>{1, 2}, -0.1), InvalidArgument);
}

TEST(Quantile, BatchMatchesIndividual) {
  Rng rng{3};
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.uniform());
  const std::vector<double> qs{0.05, 0.5, 0.95};
  const auto batch = quantiles(xs, qs);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], quantile(xs, qs[i]));
  }
}

TEST(Quantile, NanElementsAreDropped) {
  // Regression: NaNs used to poison the internal sort (NaN has no
  // ordering), yielding garbage quantiles instead of ignoring the
  // missing values.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> dirty{nan, 5, 1, nan, 9, 3, nan};
  const std::vector<double> clean{5, 1, 9, 3};
  for (const double q : {0.0, 0.25, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(quantile(dirty, q), quantile(clean, q)) << "q=" << q;
  }
  const std::vector<double> qs{0.1, 0.5, 0.9};
  const auto batch_dirty = quantiles(dirty, qs);
  const auto batch_clean = quantiles(clean, qs);
  ASSERT_EQ(batch_dirty.size(), batch_clean.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch_dirty[i], batch_clean[i]);
  }
}

TEST(Quantile, AllNanBehavesLikeEmpty) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> xs{nan, nan, nan};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 0.0);
}

TEST(QuantileSorted, EmptyColumnThrowsTypedError) {
  // Regression: quantile_sorted(empty) used to fabricate 0.0 from no
  // data. The lenient 0.0 contract stays on the unsorted NaN-dropping
  // wrappers; the sorted kernel now refuses with the typed EmptyColumn
  // (an InvalidArgument subclass, so older catch sites still work).
  EXPECT_THROW((void)quantile_sorted(std::vector<double>{}, 0.5), EmptyColumn);
  EXPECT_THROW((void)quantile_sorted(std::vector<double>{}, 0.5), InvalidArgument);
  const std::vector<double> qs{0.25, 0.75};
  EXPECT_THROW((void)quantiles_sorted(std::vector<double>{}, qs), EmptyColumn);
}

TEST(QuantileSorted, BatchMatchesScalar) {
  Rng rng{21};
  std::vector<double> xs;
  for (int i = 0; i < 400; ++i) xs.push_back(rng.normal(10.0, 3.0));
  std::sort(xs.begin(), xs.end());
  const std::vector<double> qs{0.0, 0.1, 0.5, 0.9, 1.0};
  const auto batch = quantiles_sorted(xs, qs);
  ASSERT_EQ(batch.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], quantile_sorted(xs, qs[i])) << qs[i];
  }
}

TEST(QuantileSorted, RejectsNanWithClearError) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // NaN sorts to the end under operator<; reading it must throw rather
  // than silently return NaN.
  const std::vector<double> sorted{1, 2, 3, nan};
  EXPECT_THROW((void)quantile_sorted(sorted, 1.0), InvalidArgument);
  // Quantiles that never touch the NaN element still work.
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.0), 1.0);
  const std::vector<double> single{nan};
  EXPECT_THROW((void)quantile_sorted(single, 0.5), InvalidArgument);
}

// Selection must give the bits of type 7 on the sorted sample (NaNs
// dropped, empty -> 0): compare as integers, through quantile_select on
// a scratch copy and through quantile().
double sorted_reference(const std::vector<double>& xs, double q) {
  const auto sorted = sorted_finite(xs);
  return sorted.empty() ? 0.0 : quantile_sorted(sorted, q);
}

void expect_select_matches(const std::vector<double>& xs, double q) {
  const auto expected = std::bit_cast<std::uint64_t>(sorted_reference(xs, q));
  std::vector<double> scratch = xs;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(quantile_select(scratch, q)), expected)
      << "n=" << xs.size() << " q=" << q;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(quantile(xs, q)), expected)
      << "n=" << xs.size() << " q=" << q;
}

TEST(QuantileSelect, BitIdenticalToSortedAcrossSizes) {
  Rng rng{95};
  // 20 and 21 put floor(0.95 (n-1)) on either side of an exact index;
  // 2048 and above take sorted_finite's radix-sort path.
  for (const std::size_t n : {1u, 2u, 3u, 20u, 21u, 100u, 2047u, 2048u, 5000u}) {
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i) xs.push_back(rng.lognormal(10, 2));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(p95(xs)),
              std::bit_cast<std::uint64_t>(sorted_reference(xs, 0.95)))
        << "n=" << n;
    for (const double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
      expect_select_matches(xs, q);
    }
  }
}

TEST(QuantileSelect, BitIdenticalOnTiesZerosAndSignedZeros) {
  for (const std::size_t n : {1u, 2u, 20u, 21u, 3000u}) {
    const std::vector<double> zeros(n, 0.0);
    expect_select_matches(zeros, 0.95);
    std::vector<double> scratch = zeros;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(quantile_select(scratch, 0.95)), 0u);
    std::vector<double> ties;
    for (std::size_t i = 0; i < n; ++i) ties.push_back(static_cast<double>(i % 3));
    expect_select_matches(ties, 0.95);
    // The radix sort orders -0.0 before +0.0, nth_element does not: the
    // interpolated value must not care.
    std::vector<double> signed_zeros;
    for (std::size_t i = 0; i < n; ++i) {
      signed_zeros.push_back(i % 2 == 0 ? -0.0 : 0.0);
    }
    for (const double q : {0.0, 0.5, 0.95, 1.0}) expect_select_matches(signed_zeros, q);
    signed_zeros.back() = 7.0;
    for (const double q : {0.0, 0.5, 0.95, 1.0}) expect_select_matches(signed_zeros, q);
  }
}

TEST(QuantileSelect, DropsNanAndTreatsEmptyAsZero) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  expect_select_matches({nan, 3.0, 1.0, nan, 2.0, 5.0}, 0.95);
  expect_select_matches({nan, nan}, 0.95);
  std::vector<double> empty;
  EXPECT_EQ(quantile_select(empty, 0.95), 0.0);
  std::vector<double> xs{1.0};
  EXPECT_THROW((void)quantile_select(xs, 1.5), InvalidArgument);
}

// Property sweep: monotonicity and bounds over random samples.
class QuantileProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantileProperty, MonotoneAndBounded) {
  Rng rng{GetParam()};
  std::vector<double> xs;
  const auto n = 1 + rng.index(500);
  for (std::size_t i = 0; i < n; ++i) xs.push_back(rng.lognormal(0, 2));
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());

  double prev = sorted.front();
  for (double q = 0.0; q <= 1.0001; q += 0.05) {
    const double v = quantile(xs, std::min(q, 1.0));
    EXPECT_GE(v, sorted.front());
    EXPECT_LE(v, sorted.back());
    EXPECT_GE(v + 1e-12, prev) << "q=" << q;
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace bblab::stats
