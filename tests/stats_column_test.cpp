#include "stats/column.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "stats/quantile.h"

namespace bblab::stats {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(SortedFinite, DropsNansAndCountsThem) {
  std::size_t dropped = 0;
  const auto out =
      sorted_finite(std::vector<double>{kNan, 5, 1, kNan, 9, 3, kNan}, &dropped);
  EXPECT_EQ(dropped, 3u);
  EXPECT_EQ(out, (std::vector<double>{1, 3, 5, 9}));
}

TEST(RadixSortDouble, MatchesStdSortOnAdversarialValues) {
  // Negatives, subnormals, infinities, both zeros, mixed magnitudes —
  // everything a column can legally hold after NaN filtering.
  Rng rng{11};
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) {
    double v = rng.lognormal(0.0, 4.0);
    if (rng.bernoulli(0.4)) v = -v;
    if (rng.bernoulli(0.01)) v = 0.0;
    if (rng.bernoulli(0.01)) v = -0.0;
    if (rng.bernoulli(0.005)) v = std::numeric_limits<double>::infinity();
    if (rng.bernoulli(0.005)) v = -std::numeric_limits<double>::infinity();
    if (rng.bernoulli(0.01)) v = std::numeric_limits<double>::denorm_min();
    xs.push_back(v);
  }
  auto expected = xs;
  std::sort(expected.begin(), expected.end());
  radix_sort(xs);
  ASSERT_EQ(xs.size(), expected.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    // Compare bit-level ordering only up to numeric equality (-0.0 vs
    // +0.0 may be interleaved differently by std::sort, which treats
    // them as equal).
    EXPECT_EQ(xs[i], expected[i]) << i;
  }
}

TEST(RadixSortDouble, NegativeZeroSortsBeforePositiveZero) {
  std::vector<double> xs{0.0, -0.0, 0.0, -0.0};
  radix_sort(xs);
  EXPECT_TRUE(std::signbit(xs[0]));
  EXPECT_TRUE(std::signbit(xs[1]));
  EXPECT_FALSE(std::signbit(xs[2]));
  EXPECT_FALSE(std::signbit(xs[3]));
}

TEST(RadixSortU64, MatchesStdSort) {
  Rng rng{13};
  std::vector<std::uint64_t> xs;
  for (int i = 0; i < 4096; ++i) {
    // Cluster in a narrow band so most byte passes are skippable, plus a
    // few full-range outliers so the high passes still run.
    xs.push_back(rng.bernoulli(0.05)
                     ? (static_cast<std::uint64_t>(rng.index(1u << 31)) << 33) ^
                           rng.index(1u << 31)
                     : 0xABCD000000ULL + rng.index(1 << 16));
  }
  auto expected = xs;
  std::sort(expected.begin(), expected.end());
  radix_sort(xs);
  EXPECT_EQ(xs, expected);
}

TEST(SortedFinite, LargeColumnCrossesRadixThresholdConsistently) {
  Rng rng{17};
  std::vector<double> xs;
  for (int i = 0; i < 10000; ++i) {
    xs.push_back(rng.bernoulli(0.02) ? kNan : rng.normal(0.0, 100.0));
  }
  std::size_t dropped = 0;
  const auto fast = sorted_finite(xs, &dropped);
  std::vector<double> slow;
  for (const double x : xs) {
    if (!std::isnan(x)) slow.push_back(x);
  }
  std::sort(slow.begin(), slow.end());
  EXPECT_EQ(dropped + slow.size(), xs.size());
  EXPECT_EQ(fast, slow);
}

TEST(SortPermutation, IsStableAndOrdersKeys) {
  const std::vector<std::uint64_t> keys{30, 10, 20, 10, 30, 10};
  const auto perm = sort_permutation(keys);
  ASSERT_EQ(perm.size(), keys.size());
  // Ascending keys; ties keep original order (stability).
  EXPECT_EQ(perm, (std::vector<std::uint32_t>{1, 3, 5, 2, 0, 4}));
}

TEST(GroupByKey, SegmentsRowsByAscendingKey) {
  const std::vector<std::uint64_t> keys{7, 3, 7, 3, 3, 9};
  const auto g = group_by_key(keys);
  ASSERT_EQ(g.keys, (std::vector<std::uint64_t>{3, 7, 9}));
  ASSERT_EQ(g.offsets, (std::vector<std::uint32_t>{0, 3, 5, 6}));
  // Group "3" holds rows 1, 3, 4 in original order.
  EXPECT_EQ(g.order[0], 1u);
  EXPECT_EQ(g.order[1], 3u);
  EXPECT_EQ(g.order[2], 4u);
  EXPECT_EQ(g.order[3], 0u);
  EXPECT_EQ(g.order[4], 2u);
  EXPECT_EQ(g.order[5], 5u);
}

TEST(GroupByKey, EmptyInput) {
  const auto g = group_by_key(std::vector<std::uint64_t>{});
  EXPECT_TRUE(g.keys.empty());
  EXPECT_EQ(g.offsets, (std::vector<std::uint32_t>{0}));
  EXPECT_TRUE(g.order.empty());
}

TEST(EcdfEvalSorted, MatchesScalarUpperBound) {
  Rng rng{19};
  std::vector<double> sample;
  for (int i = 0; i < 777; ++i) sample.push_back(rng.normal(0.0, 1.0));
  std::sort(sample.begin(), sample.end());
  // A third of the queries sit exactly on sample values (some repeated),
  // so the merge's `<=` advance is checked on ties, not only between them.
  std::vector<double> queries;
  for (int i = 0; i < 300; ++i) {
    queries.push_back(rng.bernoulli(0.3) ? sample[rng.index(sample.size())]
                                         : rng.normal(0.0, 1.5));
  }
  std::sort(queries.begin(), queries.end());
  std::vector<double> out(queries.size());
  ecdf_eval_sorted(sample, queries, out);
  const auto n = static_cast<double>(sample.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto it = std::upper_bound(sample.begin(), sample.end(), queries[i]);
    EXPECT_EQ(out[i], static_cast<double>(it - sample.begin()) / n) << i;
  }
}

TEST(EcdfEvalSorted, TypedErrors) {
  std::vector<double> out(1);
  EXPECT_THROW(ecdf_eval_sorted(std::vector<double>{}, std::vector<double>{1.0}, out),
               EmptyColumn);
  const std::vector<double> sample{1, 2, 3};
  std::vector<double> small(1);
  EXPECT_THROW(ecdf_eval_sorted(sample, std::vector<double>{1.0, 2.0}, small),
               InvalidArgument);
  std::vector<double> out2(2);
  EXPECT_THROW(ecdf_eval_sorted(sample, std::vector<double>{2.0, 1.0}, out2),
               InvalidArgument);
}

TEST(SortedColumn, EmptyColumnThrowsTypedError) {
  const SortedColumn empty{std::vector<double>{}};
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_THROW((void)empty.quantile(0.5), EmptyColumn);
  EXPECT_THROW((void)empty.min(), EmptyColumn);
  EXPECT_THROW((void)empty.max(), EmptyColumn);
  const std::vector<double> qs{0.5};
  EXPECT_THROW((void)empty.quantiles(qs), EmptyColumn);
  // EmptyColumn is a typed refinement of the existing InvalidArgument
  // contract, so callers catching the base class keep working.
  EXPECT_THROW((void)empty.quantile(0.5), InvalidArgument);
}

TEST(SortedColumn, AllNanBehavesLikeEmptyButCountsDrops) {
  const SortedColumn col{std::vector<double>{kNan, kNan, kNan}};
  EXPECT_TRUE(col.empty());
  EXPECT_EQ(col.dropped(), 3u);
  EXPECT_THROW((void)col.quantile(0.5), EmptyColumn);
}

TEST(SortedColumn, SingleValue) {
  const SortedColumn col{std::vector<double>{42.0}};
  EXPECT_EQ(col.size(), 1u);
  EXPECT_DOUBLE_EQ(col.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(col.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(col.quantile(1.0), 42.0);
  EXPECT_DOUBLE_EQ(col.min(), 42.0);
  EXPECT_DOUBLE_EQ(col.max(), 42.0);
}

TEST(SortedColumn, QuantilesMatchScalarPath) {
  Rng rng{23};
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.lognormal(0.0, 2.0));
  const SortedColumn col{xs};
  const std::vector<double> qs{0.0, 0.05, 0.5, 0.95, 1.0};
  const auto batch = col.quantiles(qs);
  ASSERT_EQ(batch.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], quantile(xs, qs[i])) << qs[i];
  }
  EXPECT_DOUBLE_EQ(col.min(), col.quantile(0.0));
  EXPECT_DOUBLE_EQ(col.max(), col.quantile(1.0));
}

TEST(SortedColumn, AdoptSortedSkipsCopyAndFilter) {
  std::vector<double> sorted{1.0, 2.0, 3.0};
  const double* data = sorted.data();
  const auto col = SortedColumn::adopt_sorted(std::move(sorted));
  EXPECT_EQ(col.values().data(), data);  // genuinely copy-free
  EXPECT_EQ(col.dropped(), 0u);
  EXPECT_DOUBLE_EQ(col.quantile(0.5), 2.0);
}

}  // namespace
}  // namespace bblab::stats
