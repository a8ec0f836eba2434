#include "stats/column.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>

#include "core/error.h"
#include "obs/metrics.h"
#include "stats/quantile.h"

namespace bblab::stats {

namespace {

/// Below this, std::sort's constants win over radix's histogram passes.
constexpr std::size_t kRadixThreshold = 2048;

/// Order-preserving u64 image of a finite double: flip everything for
/// negatives, flip only the sign for non-negatives. Monotone, so radix
/// order on keys == numeric order on values (-0.0 sorts before +0.0).
inline std::uint64_t double_key(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return (bits >> 63) != 0 ? ~bits : bits | 0x8000000000000000ULL;
}

inline double key_double(std::uint64_t key) {
  const std::uint64_t bits =
      (key >> 63) != 0 ? key & 0x7FFFFFFFFFFFFFFFULL : ~key;
  return std::bit_cast<double>(bits);
}

/// All eight byte histograms of `keys` in one pass.
using Histograms = std::array<std::array<std::uint32_t, 256>, 8>;

void count_bytes(std::span<const std::uint64_t> keys, Histograms& h) {
  for (auto& pass : h) pass.fill(0);
  for (const std::uint64_t k : keys) {
    for (std::size_t b = 0; b < 8; ++b) {
      ++h[b][(k >> (8 * b)) & 0xFF];
    }
  }
}

/// Is every key identical in byte `b` (pass can be skipped)?
bool uniform_byte(const Histograms& h, std::size_t b, std::size_t n) {
  for (const std::uint32_t c : h[b]) {
    if (c == n) return true;
    if (c != 0) return false;
  }
  return true;  // n == 0
}

/// LSD radix sort of u64 keys with an attached payload permuted in
/// lockstep. Payload may be empty (plain key sort). Stable.
template <typename Payload>
void radix_sort_impl(std::vector<std::uint64_t>& keys,
                     std::vector<Payload>* payload) {
  const std::size_t n = keys.size();
  if (n < 2) return;
  static obs::Counter& sorts = obs::Registry::instance().counter("stats.radix_sorts");
  static obs::Counter& sorted_keys =
      obs::Registry::instance().counter("stats.radix_keys");
  sorts.add();
  sorted_keys.add(n);
  Histograms h;
  count_bytes(keys, h);
  std::vector<std::uint64_t> key_buf(n);
  std::vector<Payload> pay_buf;
  if (payload != nullptr) pay_buf.resize(n);
  for (std::size_t b = 0; b < 8; ++b) {
    if (uniform_byte(h, b, n)) continue;
    std::array<std::uint32_t, 256> offsets{};
    std::uint32_t sum = 0;
    for (std::size_t v = 0; v < 256; ++v) {
      offsets[v] = sum;
      sum += h[b][v];
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t dst = offsets[(keys[i] >> (8 * b)) & 0xFF]++;
      key_buf[dst] = keys[i];
      if (payload != nullptr) pay_buf[dst] = (*payload)[i];
    }
    keys.swap(key_buf);
    if (payload != nullptr) payload->swap(pay_buf);
  }
}

}  // namespace

void radix_sort(std::vector<std::uint64_t>& xs) {
  radix_sort_impl<std::uint32_t>(xs, nullptr);
}

void radix_sort(std::vector<double>& xs) {
  std::vector<std::uint64_t> keys(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) keys[i] = double_key(xs[i]);
  radix_sort_impl<std::uint32_t>(keys, nullptr);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = key_double(keys[i]);
}

std::vector<std::uint32_t> sort_permutation(std::span<const std::uint64_t> keys) {
  std::vector<std::uint64_t> copy{keys.begin(), keys.end()};
  std::vector<std::uint32_t> perm(keys.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    perm[i] = static_cast<std::uint32_t>(i);
  }
  radix_sort_impl(copy, &perm);
  return perm;
}

GroupBy group_by_key(std::span<const std::uint64_t> keys) {
  GroupBy out;
  out.order = sort_permutation(keys);
  out.offsets.push_back(0);
  for (std::size_t i = 0; i < out.order.size(); ++i) {
    const std::uint64_t k = keys[out.order[i]];
    if (out.keys.empty() || out.keys.back() != k) {
      if (!out.keys.empty()) out.offsets.push_back(static_cast<std::uint32_t>(i));
      out.keys.push_back(k);
    }
  }
  out.offsets.push_back(static_cast<std::uint32_t>(out.order.size()));
  if (out.keys.empty()) out.offsets.assign(1, 0);
  return out;
}

std::size_t remove_nan(std::span<double> xs) {
  // Always store, advance the cursor only for finite-or-infinite values
  // (x == x is false exactly for NaN).
  std::size_t m = 0;
  for (const double x : xs) {
    xs[m] = x;
    m += static_cast<std::size_t>(x == x);  // NOLINT(misc-redundant-expression)
  }
  return m;
}

std::vector<double> sorted_finite(std::span<const double> xs, std::size_t* dropped) {
  std::vector<double> copy(xs.begin(), xs.end());
  const std::size_t m = remove_nan(copy);
  copy.resize(m);
  if (dropped != nullptr) *dropped = xs.size() - m;
  if (m >= kRadixThreshold) {
    radix_sort(copy);
  } else {
    std::sort(copy.begin(), copy.end());
  }
  return copy;
}

void ecdf_eval_sorted(std::span<const double> sorted_sample,
                      std::span<const double> sorted_queries,
                      std::span<double> out) {
  if (sorted_sample.empty()) {
    throw EmptyColumn{"ecdf_eval_sorted: empty sample column"};
  }
  require(out.size() == sorted_queries.size(),
          "ecdf_eval_sorted: output size must match query count");
  static obs::Counter& evals = obs::Registry::instance().counter("stats.ecdf_evals");
  static obs::Counter& queries =
      obs::Registry::instance().counter("stats.ecdf_queries");
  evals.add();
  queries.add(sorted_queries.size());
  const auto n = static_cast<double>(sorted_sample.size());
  std::size_t i = 0;
  double prev = -std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < sorted_queries.size(); ++j) {
    const double q = sorted_queries[j];
    require(q >= prev, "ecdf_eval_sorted: queries must be ascending");
    prev = q;
    while (i < sorted_sample.size() && sorted_sample[i] <= q) ++i;
    out[j] = static_cast<double>(i) / n;
  }
}

SortedColumn::SortedColumn(std::span<const double> xs) {
  // In the body, not the init list: members initialize in declaration
  // order, so writing dropped_ through the out-pointer during values_'s
  // initializer would be clobbered by dropped_'s own {0} afterwards.
  values_ = sorted_finite(xs, &dropped_);
}

SortedColumn SortedColumn::adopt_sorted(std::vector<double> sorted) {
  assert(std::is_sorted(sorted.begin(), sorted.end()));
  SortedColumn col;
  col.values_ = std::move(sorted);
  return col;
}

double SortedColumn::quantile(double q) const { return quantile_sorted(values_, q); }

std::vector<double> SortedColumn::quantiles(std::span<const double> qs) const {
  return quantiles_sorted(values_, qs);
}

double SortedColumn::min() const {
  if (values_.empty()) throw EmptyColumn{"SortedColumn::min on empty column"};
  return values_.front();
}

double SortedColumn::max() const {
  if (values_.empty()) throw EmptyColumn{"SortedColumn::max on empty column"};
  return values_.back();
}

}  // namespace bblab::stats
