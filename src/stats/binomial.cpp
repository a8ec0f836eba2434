#include "stats/binomial.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "core/error.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "stats/column.h"

namespace bblab::stats {

namespace {

/// lgamma without the write to the global `signgam` that std::lgamma
/// makes, which is a data race when binomial tests run on several
/// threads (concurrent serve queries). Same values as std::lgamma.
double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

}  // namespace

double log_choose(std::uint64_t n, std::uint64_t k) {
  require(k <= n, "log_choose: k must be <= n");
  return log_gamma(static_cast<double>(n) + 1.0) -
         log_gamma(static_cast<double>(k) + 1.0) -
         log_gamma(static_cast<double>(n - k) + 1.0);
}

double binomial_pmf(std::uint64_t k, std::uint64_t n, double p) {
  require(p >= 0.0 && p <= 1.0, "binomial_pmf: p must be in [0,1]");
  if (k > n) return 0.0;
  if (p == 0.0) return k == 0 ? 1.0 : 0.0;
  if (p == 1.0) return k == n ? 1.0 : 0.0;
  const double logp = log_choose(n, k) + static_cast<double>(k) * std::log(p) +
                      static_cast<double>(n - k) * std::log1p(-p);
  return std::exp(logp);
}

namespace {

/// log PMF for p strictly inside (0,1).
double log_pmf(std::uint64_t k, std::uint64_t n, double p) {
  return log_choose(n, k) + static_cast<double>(k) * std::log(p) +
         static_cast<double>(n - k) * std::log1p(-p);
}

/// Terms with log PMF below this underflow to 0 in double; summing at
/// most n <= 2^63 of them still contributes < 1e-280, far below the
/// representable result they would be added to.
constexpr double kLogTiny = -708.0;

/// Sum over [k_lo, k_hi] where the PMF is non-decreasing in k (the range
/// lies at or below the mode): ascend from the small end so the largest
/// terms are added last. If the small end underflows, start at the first
/// representable term (log_pmf is monotone here, so binary search works).
double sum_ascending(std::uint64_t k_lo, std::uint64_t k_hi, std::uint64_t n,
                     double p) {
  std::uint64_t start = k_lo;
  if (log_pmf(start, n, p) < kLogTiny) {
    if (log_pmf(k_hi, n, p) < kLogTiny) return 0.0;
    std::uint64_t lo = k_lo, hi = k_hi;  // first k with a representable term
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (log_pmf(mid, n, p) < kLogTiny) lo = mid + 1; else hi = mid;
    }
    start = lo;
  }
  // pmf(k+1) = pmf(k) * (n-k)/(k+1) * p/(1-p).
  const double odds = p / (1.0 - p);
  double total = 0.0;
  double term = binomial_pmf(start, n, p);
  for (std::uint64_t k = start;; ++k) {
    total += term;
    if (k == k_hi) break;
    term *= static_cast<double>(n - k) / static_cast<double>(k + 1) * odds;
  }
  return total;
}

/// Sum over [k_lo, k_hi] where the PMF is non-increasing in k (the range
/// lies above the mode): descend from k_hi via the inverse recurrence so
/// terms are again added smallest-first. If the far end underflows,
/// start at the last representable term.
double sum_descending(std::uint64_t k_lo, std::uint64_t k_hi, std::uint64_t n,
                      double p) {
  std::uint64_t start = k_hi;
  if (log_pmf(start, n, p) < kLogTiny) {
    if (log_pmf(k_lo, n, p) < kLogTiny) return 0.0;
    std::uint64_t lo = k_lo, hi = k_hi;  // last k with a representable term
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo + 1) / 2;
      if (log_pmf(mid, n, p) < kLogTiny) hi = mid - 1; else lo = mid;
    }
    start = lo;
  }
  // pmf(k-1) = pmf(k) * k/(n-k+1) * (1-p)/p.
  const double inv_odds = (1.0 - p) / p;
  double total = 0.0;
  double term = binomial_pmf(start, n, p);
  for (std::uint64_t k = start;; --k) {
    total += term;
    if (k == k_lo) break;
    term *= static_cast<double>(k) / static_cast<double>(n - k + 1) * inv_odds;
  }
  return total;
}

/// Sum of PMF over [k_lo, k_hi], always accumulating in the direction of
/// increasing mass. The PMF rises up to its mode floor((n+1)p) and falls
/// after it, so an upper tail is summed descending from k_hi, a lower
/// tail ascending from k_lo, and a mode-spanning range is split.
double pmf_sum(std::uint64_t k_lo, std::uint64_t k_hi, std::uint64_t n, double p) {
  if (k_lo > k_hi) return 0.0;
  const double m = (static_cast<double>(n) + 1.0) * p;
  const auto mode = static_cast<std::uint64_t>(
      std::min(static_cast<double>(n), std::max(0.0, std::floor(m))));
  if (k_lo > mode) return sum_descending(k_lo, k_hi, n, p);
  if (k_hi <= mode) return sum_ascending(k_lo, k_hi, n, p);
  return sum_ascending(k_lo, mode, n, p) + sum_descending(mode + 1, k_hi, n, p);
}

}  // namespace

double binomial_p_greater(std::uint64_t successes, std::uint64_t trials, double p0) {
  require(p0 > 0.0 && p0 < 1.0, "binomial test: p0 must be in (0,1)");
  require(successes <= trials, "binomial test: successes must be <= trials");
  static obs::Counter& tests =
      obs::Registry::instance().counter("stats.binomial_tests");
  tests.add();
  if (trials == 0) return 1.0;
  const double p = pmf_sum(successes, trials, trials, p0);
  return std::min(1.0, p);
}

std::vector<double> binomial_p_greater_batch(std::span<const std::uint64_t> successes,
                                             std::uint64_t trials, double p0) {
  require(p0 > 0.0 && p0 < 1.0, "binomial test: p0 must be in (0,1)");
  static obs::Counter& batches =
      obs::Registry::instance().counter("stats.binomial_batches");
  static obs::Counter& tests =
      obs::Registry::instance().counter("stats.binomial_tests");
  batches.add();
  tests.add(successes.size());
  std::vector<double> out(successes.size(), 1.0);
  if (successes.empty()) return out;
  for (const std::uint64_t k : successes) {
    require(k <= trials, "binomial test: successes must be <= trials");
  }
  if (trials == 0) return out;
  // Visit the queries in descending k. tail(k') = tail(k) + sum of the
  // PMF over [k', k-1], so each segment of the tail is summed exactly
  // once no matter how many queries share it. pmf_sum keeps each
  // segment's internal summation mass-ordered, as in the scalar path.
  const auto order = sort_permutation(successes);
  double tail = 0.0;
  std::uint64_t covered_from = trials + 1;  // tail currently covers [covered_from, n]
  for (std::size_t r = order.size(); r-- > 0;) {
    const std::uint64_t k = successes[order[r]];
    if (k < covered_from) {
      tail += pmf_sum(k, covered_from - 1, trials, p0);
      covered_from = k;
    }
    out[order[r]] = std::min(1.0, tail);
  }
  return out;
}

double binomial_p_less(std::uint64_t successes, std::uint64_t trials, double p0) {
  require(p0 > 0.0 && p0 < 1.0, "binomial test: p0 must be in (0,1)");
  require(successes <= trials, "binomial test: successes must be <= trials");
  if (trials == 0) return 1.0;
  const double p = pmf_sum(0, successes, trials, p0);
  return std::min(1.0, p);
}

std::string BinomialTestResult::to_string() const {
  std::array<char, 128> buf{};
  std::snprintf(buf.data(), buf.size(), "%.1f%% H holds (n=%llu, p=%.3g)%s",
                fraction * 100.0, static_cast<unsigned long long>(trials), p_value,
                conclusive() ? "" : " *");
  return std::string{buf.data()};
}

BinomialTestResult binomial_test(std::uint64_t successes, std::uint64_t trials,
                                 double p0, double alpha, double practical_margin) {
  OBS_SPAN("stats.binomial");
  BinomialTestResult r;
  r.successes = successes;
  r.trials = trials;
  r.fraction = trials > 0 ? static_cast<double>(successes) / static_cast<double>(trials) : 0.0;
  r.p_value = binomial_p_greater(successes, trials, p0);
  r.significant = trials > 0 && r.p_value < alpha;
  r.practical = trials > 0 && r.fraction >= p0 + practical_margin;
  return r;
}

}  // namespace bblab::stats
