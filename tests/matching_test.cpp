#include "causal/matching.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/rng.h"

namespace bblab::causal {
namespace {

/// A table of (outcome, covariates) rows of dimension `dim`.
UnitTable table(std::size_t dim,
                std::initializer_list<std::pair<double, std::vector<double>>> rows) {
  UnitTable t{dim};
  for (const auto& [outcome, covs] : rows) t.push_back(outcome, covs, t.size());
  return t;
}

TEST(WithinCaliper, PaperExamples) {
  const MatcherOptions opt{.caliper = 0.25, .absolute_slacks = {}};
  // "users with latencies of 50 and 62 ms and ... $25 and $30 ... are
  // sufficiently similar" (§3.2).
  EXPECT_TRUE(within_caliper(std::vector<double>{50.0, 25.0},
                             std::vector<double>{62.0, 30.0}, opt));
  // 50 vs 70 ms breaks the caliper (diff 20 > 0.25*70).
  EXPECT_FALSE(within_caliper(std::vector<double>{50.0}, std::vector<double>{70.0}, opt));
}

TEST(WithinCaliper, ZeroValuesMatchViaAbsoluteSlack) {
  const MatcherOptions opt{.caliper = 0.25, .absolute_slack = 1e-4, .absolute_slacks = {}};
  EXPECT_TRUE(within_caliper(std::vector<double>{0.0}, std::vector<double>{5e-5}, opt));
  EXPECT_FALSE(within_caliper(std::vector<double>{0.0}, std::vector<double>{0.01}, opt));
}

TEST(WithinCaliper, DimensionMismatchThrows) {
  EXPECT_THROW((void)within_caliper(std::vector<double>{1.0}, std::vector<double>{1.0, 2.0},
                              MatcherOptions{}),
               InvalidArgument);
}

TEST(CovariateDistance, ZeroForIdentical) {
  EXPECT_DOUBLE_EQ(
      covariate_distance(std::vector<double>{1.0, 2.0}, std::vector<double>{1.0, 2.0}),
      0.0);
}

TEST(CovariateDistance, ScaleInvariant) {
  // 10% relative difference scores the same at any magnitude.
  const double d_small =
      covariate_distance(std::vector<double>{1.0}, std::vector<double>{1.1});
  const double d_large =
      covariate_distance(std::vector<double>{1000.0}, std::vector<double>{1100.0});
  EXPECT_NEAR(d_small, d_large, 1e-12);
}

TEST(CaliperMatcher, MatchesExactNeighbors) {
  const auto treated = table(1, {{10, {100.0}}, {20, {200.0}}});
  const auto control = table(1, {{1, {105.0}}, {2, {210.0}}, {3, {1000.0}}});
  const CaliperMatcher matcher;
  const auto pairs = matcher.match(treated, control);
  ASSERT_EQ(pairs.size(), 2u);
  std::set<std::size_t> controls;
  for (const auto& p : pairs) controls.insert(p.control_index);
  EXPECT_EQ(controls, (std::set<std::size_t>{0, 1}));
}

TEST(CaliperMatcher, OneToOneWithoutReplacement) {
  // Two treated users both closest to the same control; only one can get it.
  const auto treated = table(1, {{1, {100.0}}, {2, {101.0}}});
  const auto control = table(1, {{0, {100.0}}, {0, {120.0}}});
  const CaliperMatcher matcher;
  const auto pairs = matcher.match(treated, control);
  ASSERT_EQ(pairs.size(), 2u);
  std::set<std::size_t> used_controls;
  std::set<std::size_t> used_treated;
  for (const auto& p : pairs) {
    used_controls.insert(p.control_index);
    used_treated.insert(p.treated_index);
  }
  EXPECT_EQ(used_controls.size(), 2u);
  EXPECT_EQ(used_treated.size(), 2u);
  // The exact-distance pair must get priority: treated 0 <-> control 0.
  EXPECT_EQ(pairs.front().treated_index, 0u);
  EXPECT_EQ(pairs.front().control_index, 0u);
}

TEST(CaliperMatcher, DissimilarUsersStayUnmatched) {
  const auto treated = table(2, {{1, {10.0, 5.0}}});
  const auto control = table(2, {{2, {10.0, 50.0}}});  // second covariate off
  const CaliperMatcher matcher;
  EXPECT_TRUE(matcher.match(treated, control).empty());
}

TEST(CaliperMatcher, TighterCaliperFewerMatches) {
  Rng rng{3};
  UnitTable treated{1};
  UnitTable control{1};
  for (int i = 0; i < 200; ++i) {
    treated.push_back(rng.uniform(), {rng.lognormal(3.0, 0.8)});
    control.push_back(rng.uniform(), {rng.lognormal(3.0, 0.8)});
  }
  const auto loose = CaliperMatcher{MatcherOptions{.caliper = 0.5, .absolute_slacks = {}}}
                         .match(treated, control);
  const auto tight = CaliperMatcher{MatcherOptions{.caliper = 0.05, .absolute_slacks = {}}}
                         .match(treated, control);
  EXPECT_GT(loose.size(), tight.size());
  EXPECT_FALSE(tight.empty());
}

TEST(CaliperMatcher, MatchedPairsRespectCaliper) {
  Rng rng{5};
  UnitTable treated{2};
  UnitTable control{2};
  for (int i = 0; i < 300; ++i) {
    treated.push_back(rng.uniform(), {rng.lognormal(2.0, 1.0), rng.uniform(10, 100)});
    control.push_back(rng.uniform(), {rng.lognormal(2.0, 1.0), rng.uniform(10, 100)});
  }
  const MatcherOptions opt{.caliper = 0.25, .absolute_slacks = {}};
  const auto pairs = CaliperMatcher{opt}.match(treated, control);
  EXPECT_FALSE(pairs.empty());
  for (const auto& p : pairs) {
    EXPECT_TRUE(within_caliper(treated.covariates(p.treated_index),
                               control.covariates(p.control_index), opt));
  }
}

TEST(CaliperMatcher, BalanceImprovesAfterMatching) {
  // Treated group has systematically higher covariate values plus an
  // overlapping region; matching should select the overlap.
  Rng rng{7};
  UnitTable treated{1};
  UnitTable control{1};
  for (int i = 0; i < 400; ++i) {
    treated.push_back(0.0, {rng.lognormal(2.4, 0.5)});
    control.push_back(0.0, {rng.lognormal(2.0, 0.5)});
  }
  const auto pairs = CaliperMatcher{}.match(treated, control);
  ASSERT_GT(pairs.size(), 30u);
  const auto smd = standardized_mean_differences(treated, control, pairs);
  ASSERT_EQ(smd.size(), 1u);
  EXPECT_LT(std::abs(smd[0]), 0.25);  // pre-matching SMD is ~0.8
}

TEST(StandardizedMeanDifferences, EmptyPairs) {
  EXPECT_TRUE(standardized_mean_differences({}, {}, {}).empty());
}

TEST(MatcherOptions, PerCovariateSlackOverrides) {
  MatcherOptions opt;
  opt.absolute_slack = 1e-9;
  opt.absolute_slacks = {1e-9, 2e-4};
  // Covariate 0: tight slack — zero vs 1e-5 fails.
  EXPECT_FALSE(within_caliper(std::vector<double>{0.0, 0.0},
                              std::vector<double>{1e-5, 0.0}, opt));
  // Covariate 1: loss-style slack — zero vs 1e-5 passes.
  EXPECT_TRUE(within_caliper(std::vector<double>{1.0, 0.0},
                             std::vector<double>{1.0, 1e-5}, opt));
  // Beyond the per-covariate list, the scalar default applies.
  opt.absolute_slacks = {5.0};
  EXPECT_TRUE(within_caliper(std::vector<double>{0.0, 1.0},
                             std::vector<double>{4.0, 1.0}, opt));
  EXPECT_FALSE(within_caliper(std::vector<double>{0.0, 1.0},
                              std::vector<double>{4.0, 2.0}, opt));
}

TEST(UnitTable, RowMajorRowsAndTags) {
  UnitTable t{2};
  t.push_back(7.0, {1.0, 2.0});
  const std::vector<double> row{3.0, 4.0};
  t.push_back(8.0, row, 42);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.dim(), 2u);
  EXPECT_EQ(t.outcome(1), 8.0);
  EXPECT_EQ(t.covariates(1)[0], 3.0);
  EXPECT_EQ(t.covariates(1)[1], 4.0);
  EXPECT_EQ(t.tag(0), 0u);
  EXPECT_EQ(t.tag(1), 42u);
}

TEST(UnitTable, RejectsRaggedAndNonFiniteRows) {
  UnitTable t{2};
  EXPECT_THROW(t.push_back(1.0, {1.0}), InvalidArgument);
  EXPECT_THROW(t.push_back(1.0, {1.0, 2.0, 3.0}), InvalidArgument);
  EXPECT_THROW(t.push_back(1.0, {1.0, std::nan("")}), InvalidArgument);
  EXPECT_THROW(t.push_back(1.0, {std::numeric_limits<double>::infinity(), 1.0}),
               InvalidArgument);
  EXPECT_TRUE(t.empty());
}

// A treated table whose dimension differs from the control table's is a
// typed error even when no control lies in the treated unit's band.
TEST(CaliperMatcher, DimensionMismatchThrowsEvenWithEmptyBand) {
  const auto treated = table(1, {{1, {1000.0}}});
  const auto control = table(2, {{2, {10.0, 1.0}}});
  EXPECT_THROW((void)CaliperMatcher{}.match(treated, control), InvalidArgument);
  EXPECT_THROW((void)CaliperMatcher{}.match(control, treated), InvalidArgument);
}

// Units without covariates cannot be matched: a typed error, not a read
// of covariate 0 past the end.
TEST(CaliperMatcher, ZeroDimensionThrows) {
  UnitTable treated{0};
  treated.push_back(1.0, {});
  UnitTable control{0};
  control.push_back(2.0, {});
  EXPECT_THROW((void)CaliperMatcher{}.match(treated, control), InvalidArgument);
  EXPECT_THROW((void)CaliperMatcher{}.match(treated, table(1, {{2, {1.0}}})),
               InvalidArgument);
}

// A NaN caliper would make every comparison false and so every pair
// feasible (10 matched with 1e6); reject non-finite or negative tolerances.
TEST(CaliperMatcher, RejectsNonFiniteOrNegativeTolerances) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -0.1}) {
    MatcherOptions caliper;
    caliper.caliper = bad;
    EXPECT_THROW(CaliperMatcher{caliper}, InvalidArgument) << bad;
    MatcherOptions slack;
    slack.absolute_slack = bad;
    EXPECT_THROW(CaliperMatcher{slack}, InvalidArgument) << bad;
    MatcherOptions per;
    per.absolute_slacks = {1e-9, bad};
    EXPECT_THROW(CaliperMatcher{per}, InvalidArgument) << bad;
  }
  MatcherOptions zero;
  zero.caliper = 0.0;
  zero.absolute_slack = 0.0;
  EXPECT_NO_THROW(CaliperMatcher{zero});
}

TEST(CaliperMatcher, EmptyGroupsMatchNothing) {
  const auto some = table(1, {{1, {1.0}}});
  EXPECT_TRUE(CaliperMatcher{}.match(UnitTable{}, some).empty());
  EXPECT_TRUE(CaliperMatcher{}.match(some, UnitTable{3}).empty());
}

}  // namespace
}  // namespace bblab::causal
