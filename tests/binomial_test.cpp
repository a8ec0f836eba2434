#include "stats/binomial.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/error.h"
#include "obs/metrics.h"

namespace bblab::stats {
namespace {

TEST(LogChoose, SmallValuesExact) {
  EXPECT_NEAR(std::exp(log_choose(5, 2)), 10.0, 1e-9);
  EXPECT_NEAR(std::exp(log_choose(10, 0)), 1.0, 1e-9);
  EXPECT_NEAR(std::exp(log_choose(10, 10)), 1.0, 1e-9);
  EXPECT_NEAR(std::exp(log_choose(52, 5)), 2598960.0, 1.0);
  EXPECT_THROW((void)log_choose(3, 4), InvalidArgument);
}

TEST(BinomialPmf, SumsToOne) {
  for (const double p : {0.1, 0.5, 0.9}) {
    double total = 0.0;
    for (std::uint64_t k = 0; k <= 30; ++k) total += binomial_pmf(k, 30, p);
    EXPECT_NEAR(total, 1.0, 1e-10) << "p=" << p;
  }
}

TEST(BinomialPmf, DegenerateP) {
  EXPECT_DOUBLE_EQ(binomial_pmf(0, 10, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(3, 10, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(10, 10, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(11, 10, 0.5), 0.0);
}

TEST(BinomialPGreater, MatchesHandComputedValues) {
  // Fair coin, 10 flips, >= 8 heads: (45 + 10 + 1)/1024.
  EXPECT_NEAR(binomial_p_greater(8, 10), 56.0 / 1024.0, 1e-12);
  // >= 0 successes is certain.
  EXPECT_DOUBLE_EQ(binomial_p_greater(0, 10), 1.0);
  // All successes: (1/2)^10.
  EXPECT_NEAR(binomial_p_greater(10, 10), std::pow(0.5, 10), 1e-15);
}

TEST(BinomialPLess, ComplementsUpperTail) {
  // P(X <= k) + P(X >= k+1) == 1 exactly.
  for (std::uint64_t k = 0; k < 20; ++k) {
    EXPECT_NEAR(binomial_p_less(k, 20) + binomial_p_greater(k + 1, 20), 1.0, 1e-10);
  }
}

TEST(BinomialPGreater, LargeSampleStaysStable) {
  // 52% of 100k should be extremely significant against p0=0.5...
  const double p = binomial_p_greater(52000, 100000);
  EXPECT_LT(p, 1e-30);
  EXPECT_GT(p, 0.0);
  // ...while 50.1% is not.
  EXPECT_GT(binomial_p_greater(50100, 100000), 0.2);
}

TEST(BinomialPGreater, PaperScaleValues) {
  // Table 1 of the paper: 66.8% of ~1200 pairs gives p ~ 1e-25.
  // Reconstruct the scale: successes/trials that match 66.8% with the
  // reported p-value magnitude.
  const double p = binomial_p_greater(802, 1200);
  EXPECT_LT(p, 1e-20);
}

TEST(BinomialTest, DecisionRuleMatchesPaper) {
  // Conclusive: 60% of 1000 pairs.
  const auto strong = binomial_test(600, 1000);
  EXPECT_TRUE(strong.significant);
  EXPECT_TRUE(strong.practical);
  EXPECT_TRUE(strong.conclusive());

  // Statistically significant but below the 52% practical margin: the
  // paper's guard against large-sample trivia.
  const auto trivial = binomial_test(51000, 100000);
  EXPECT_TRUE(trivial.significant);
  EXPECT_FALSE(trivial.practical);
  EXPECT_FALSE(trivial.conclusive());

  // Small sample at 60%: practical but not significant.
  const auto small = binomial_test(6, 10);
  EXPECT_FALSE(small.significant);
  EXPECT_TRUE(small.practical);
  EXPECT_FALSE(small.conclusive());
}

TEST(BinomialTest, EmptyTrialsAreInconclusive) {
  const auto r = binomial_test(0, 0);
  EXPECT_FALSE(r.significant);
  EXPECT_FALSE(r.practical);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

TEST(BinomialTest, ValidatesInputs) {
  EXPECT_THROW((void)binomial_p_greater(5, 3), InvalidArgument);
  EXPECT_THROW((void)binomial_p_greater(1, 2, 0.0), InvalidArgument);
  EXPECT_THROW((void)binomial_p_greater(1, 2, 1.0), InvalidArgument);
}

// High-precision references for the million-trial regression below: sum
// per-term long-double PMFs smallest-first so no precision is lost to a
// large running total.
long double ref_log_pmf(std::uint64_t k, std::uint64_t n, long double p) {
  const auto kl = static_cast<long double>(k);
  const auto nl = static_cast<long double>(n);
  return std::lgamma(nl + 1.0L) - std::lgamma(kl + 1.0L) -
         std::lgamma(nl - kl + 1.0L) + kl * std::log(p) +
         (nl - kl) * std::log1p(-p);
}

long double ref_p_greater(std::uint64_t k, std::uint64_t n, long double p) {
  long double total = 0.0L;
  for (std::uint64_t j = n;; --j) {  // upper tail: smallest terms at j = n
    total += std::exp(ref_log_pmf(j, n, p));
    if (j == k) break;
  }
  return total;
}

long double ref_p_less(std::uint64_t k, std::uint64_t n, long double p) {
  long double total = 0.0L;
  for (std::uint64_t j = 0; j <= k; ++j) {  // lower tail: smallest at j = 0
    total += std::exp(ref_log_pmf(j, n, p));
  }
  return total;
}

TEST(BinomialTail, MillionTrialUpperTailMatchesReference) {
  // Regression: the tail used to be accumulated by ascending-k recurrence
  // regardless of which side of the mode it lay on, so big-to-small
  // addition (and an underflowed starting term) corrupted upper tails at
  // paper scale (n ~ 10^6 FCC samples).
  const std::uint64_t n = 1000000;
  for (const std::uint64_t k : {500500ull, 501500ull, 505000ull}) {
    const long double ref = ref_p_greater(k, n, 0.5L);
    const double got = binomial_p_greater(k, n);
    EXPECT_NEAR(got, static_cast<double>(ref),
                static_cast<double>(ref) * 1e-9)
        << "k=" << k;
  }
}

TEST(BinomialTail, MillionTrialLowerTailIsNonzero) {
  // Companion latent bug: the ascending sum started at pmf(0), which
  // underflows to zero for n = 10^6, zeroing the whole lower tail.
  const std::uint64_t n = 1000000;
  for (const std::uint64_t k : {499000ull, 498500ull}) {
    const long double ref = ref_p_less(k, n, 0.5L);
    const double got = binomial_p_less(k, n);
    EXPECT_GT(got, 0.0) << "k=" << k;
    EXPECT_NEAR(got, static_cast<double>(ref),
                static_cast<double>(ref) * 1e-9)
        << "k=" << k;
  }
}

TEST(BinomialTail, SkewedPSplitsAroundTheMode) {
  // p far from 0.5 exercises both recurrence directions around the mode.
  for (const double p0 : {0.02, 0.97}) {
    const std::uint64_t n = 5000;
    const auto mode = static_cast<std::uint64_t>((n + 1) * p0);
    for (const std::uint64_t k :
         {std::uint64_t{0}, mode / 2 + 1, mode,
          std::min(n, mode + mode / 2 + 1)}) {
      const long double ref = ref_p_greater(k, n, p0);
      EXPECT_NEAR(binomial_p_greater(k, n, p0), static_cast<double>(ref),
                  static_cast<double>(ref) * 1e-9)
          << "p0=" << p0 << " k=" << k;
    }
  }
}

// Property sweep: exact tail sum equals brute-force PMF accumulation.
class BinomialTailProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(BinomialTailProperty, TailMatchesBruteForce) {
  const auto [n, p0] = GetParam();
  for (std::uint64_t k = 0; k <= n; k += std::max<std::uint64_t>(1, n / 7)) {
    double brute = 0.0;
    for (std::uint64_t j = k; j <= n; ++j) brute += binomial_pmf(j, n, p0);
    EXPECT_NEAR(binomial_p_greater(k, n, p0), std::min(1.0, brute), 1e-9)
        << "n=" << n << " k=" << k << " p0=" << p0;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BinomialTailProperty,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 7, 50, 333),
                       ::testing::Values(0.1, 0.5, 0.85)));

TEST(BinomialBatch, MatchesScalarTails) {
  // The batch kernel shares tail segments between sorted queries; it
  // agrees with the scalar path up to summation regrouping, so compare
  // with a tight relative tolerance rather than bitwise.
  const std::uint64_t n = 100000;
  // Deliberately unsorted + duplicated query order.
  std::vector<std::uint64_t> shuffled{50200, 0, 99999, 50001, 50001, 1,
                                      60000, 49000, 50000, 100000, 51000};
  for (const double p0 : {0.3, 0.5}) {
    const auto batch = binomial_p_greater_batch(shuffled, n, p0);
    ASSERT_EQ(batch.size(), shuffled.size());
    for (std::size_t i = 0; i < shuffled.size(); ++i) {
      const double scalar = binomial_p_greater(shuffled[i], n, p0);
      EXPECT_NEAR(batch[i], scalar, std::max(1e-300, scalar * 1e-9))
          << "k=" << shuffled[i] << " p0=" << p0;
    }
  }
}

TEST(BinomialBatch, EdgeCases) {
  EXPECT_TRUE(binomial_p_greater_batch({}, 100).empty());
  const std::vector<std::uint64_t> ks{0, 0};
  const auto zero_trials = binomial_p_greater_batch(ks, 0);
  EXPECT_DOUBLE_EQ(zero_trials[0], 1.0);
  EXPECT_DOUBLE_EQ(zero_trials[1], 1.0);
  const std::vector<std::uint64_t> bad{5};
  EXPECT_THROW((void)binomial_p_greater_batch(bad, 4), InvalidArgument);
}

TEST(BinomialTest, CountsEveryTestOnceScalarOrBatched) {
  const obs::Counter& tests = obs::Registry::instance().counter("stats.binomial_tests");
  const std::uint64_t before = tests.value();
  (void)binomial_p_greater(3, 10, 0.5);
  (void)binomial_p_greater(0, 0, 0.5);
  EXPECT_EQ(tests.value(), before + 2);
  const std::vector<std::uint64_t> ks{1, 2, 3};
  (void)binomial_p_greater_batch(ks, 10, 0.5);
  EXPECT_EQ(tests.value(), before + 5);
}

}  // namespace
}  // namespace bblab::stats
