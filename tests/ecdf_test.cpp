#include "stats/ecdf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/error.h"
#include "core/rng.h"

namespace bblab::stats {
namespace {

TEST(Ecdf, EvaluatesStepFunction) {
  const Ecdf e{std::vector<double>{1, 2, 3, 4}};
  EXPECT_DOUBLE_EQ(e(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e(1.0), 0.25);
  EXPECT_DOUBLE_EQ(e(2.5), 0.5);
  EXPECT_DOUBLE_EQ(e(4.0), 1.0);
  EXPECT_DOUBLE_EQ(e(100.0), 1.0);
}

TEST(Ecdf, EmptyBehaves) {
  const Ecdf e;
  EXPECT_TRUE(e.empty());
  EXPECT_DOUBLE_EQ(e(1.0), 0.0);
  EXPECT_THROW((void)e.min(), InvalidArgument);
  // The operations that must read at least one value throw the typed
  // error instead of reading element 0 of nothing.
  EXPECT_THROW((void)e.min(), EmptyColumn);
  EXPECT_THROW((void)e.max(), EmptyColumn);
  EXPECT_THROW((void)e.inverse(0.5), EmptyColumn);
  std::vector<double> out(1);
  EXPECT_THROW(e.evaluate_sorted(std::vector<double>{1.0}, out), EmptyColumn);
}

TEST(Ecdf, DropsNanInputAndCountsIt) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Ecdf dirty{std::vector<double>{nan, 3, 1, nan, 2}};
  const Ecdf clean{std::vector<double>{3, 1, 2}};
  EXPECT_EQ(dirty.size(), 3u);
  EXPECT_EQ(dirty.dropped(), 2u);
  EXPECT_EQ(clean.dropped(), 0u);
  for (const double x : {0.5, 1.0, 2.5, 3.0}) {
    EXPECT_DOUBLE_EQ(dirty(x), clean(x)) << x;
  }
  const Ecdf all_nan{std::vector<double>{nan, nan}};
  EXPECT_TRUE(all_nan.empty());
  EXPECT_EQ(all_nan.dropped(), 2u);
}

TEST(Ecdf, BatchEvaluationMatchesScalar) {
  Rng rng{31};
  std::vector<double> xs;
  for (int i = 0; i < 600; ++i) xs.push_back(rng.lognormal(0.0, 1.0));
  const Ecdf e{xs};
  std::vector<double> queries;
  for (int i = 0; i < 200; ++i) queries.push_back(rng.lognormal(0.0, 1.2));
  std::sort(queries.begin(), queries.end());
  std::vector<double> out(queries.size());
  e.evaluate_sorted(queries, out);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(out[i], e(queries[i])) << i;
  }
}

TEST(Ecdf, AdoptsPresortedColumn) {
  auto col = SortedColumn::adopt_sorted(std::vector<double>{1, 2, 3, 4});
  const Ecdf e{std::move(col)};
  EXPECT_EQ(e.size(), 4u);
  EXPECT_DOUBLE_EQ(e(2.5), 0.5);
}

TEST(Ecdf, InverseMatchesQuantiles) {
  const Ecdf e{std::vector<double>{10, 20, 30, 40, 50}};
  EXPECT_DOUBLE_EQ(e.inverse(0.0), 10.0);
  EXPECT_DOUBLE_EQ(e.inverse(0.5), 30.0);
  EXPECT_DOUBLE_EQ(e.inverse(1.0), 50.0);
}

TEST(Ecdf, PointsAreMonotone) {
  Rng rng{3};
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.normal(0, 1));
  const Ecdf e{xs};
  const auto pts = e.points();
  ASSERT_EQ(pts.size(), xs.size());
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].x, pts[i - 1].x);
    EXPECT_GT(pts[i].f, pts[i - 1].f);
  }
  EXPECT_DOUBLE_EQ(pts.back().f, 1.0);
}

TEST(Ecdf, SampledHasRequestedResolution) {
  Rng rng{5};
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(rng.uniform());
  const Ecdf e{xs};
  const auto pts = e.sampled(11);
  ASSERT_EQ(pts.size(), 11u);
  EXPECT_DOUBLE_EQ(pts.front().f, 0.0);
  EXPECT_DOUBLE_EQ(pts.back().f, 1.0);
  EXPECT_THROW(e.sampled(1), InvalidArgument);
}

TEST(Ecdf, SummaryMentionsMedian) {
  const Ecdf e{std::vector<double>{1, 2, 3}};
  EXPECT_NE(e.summary().find("p50=2"), std::string::npos);
  EXPECT_EQ(Ecdf{}.summary(), "(empty)");
}

}  // namespace
}  // namespace bblab::stats
