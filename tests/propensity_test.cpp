#include "causal/propensity.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/error.h"
#include "core/rng.h"

namespace bblab::causal {
namespace {

TEST(LogisticModel, SeparatesShiftedGroups) {
  Rng rng{3};
  UnitTable treated{2};
  UnitTable control{2};
  for (int i = 0; i < 600; ++i) {
    treated.push_back(0, {rng.normal(1.5, 1.0), rng.normal(0, 1)});
    control.push_back(0, {rng.normal(-1.5, 1.0), rng.normal(0, 1)});
  }
  const auto model = LogisticModel::fit(treated, control, {});
  int correct = 0;
  for (std::size_t i = 0; i < treated.size(); ++i) {
    if (model.predict(treated.covariates(i)) > 0.5) ++correct;
  }
  for (std::size_t i = 0; i < control.size(); ++i) {
    if (model.predict(control.covariates(i)) < 0.5) ++correct;
  }
  EXPECT_GT(correct, 1100);  // > 91% accuracy on a 3-sigma separation
  // Weight on the informative covariate dominates the noise covariate.
  EXPECT_GT(std::fabs(model.weights()[0]), 4.0 * std::fabs(model.weights()[1]));
}

TEST(LogisticModel, IndistinguishableGroupsPredictNearHalf) {
  Rng rng{5};
  UnitTable treated{1};
  UnitTable control{1};
  for (int i = 0; i < 500; ++i) {
    treated.push_back(0, {rng.normal(0, 1)});
    control.push_back(0, {rng.normal(0, 1)});
  }
  const auto model = LogisticModel::fit(treated, control, {});
  double sum = 0.0;
  for (std::size_t i = 0; i < treated.size(); ++i) {
    sum += model.predict(treated.covariates(i));
  }
  EXPECT_NEAR(sum / 500.0, 0.5, 0.05);
}

TEST(LogisticModel, ValidatesInput) {
  EXPECT_THROW(LogisticModel::fit({}, {}, {}), InvalidArgument);
  UnitTable a{1};
  a.push_back(0, {1.0});
  UnitTable b{2};
  b.push_back(0, {1.0, 2.0});
  EXPECT_THROW(LogisticModel::fit(a, b, {}), InvalidArgument);
  const auto model = LogisticModel::fit(a, a, {});
  EXPECT_THROW(model.predict(std::vector<double>{1.0, 2.0}), InvalidArgument);
}

TEST(PropensityMatch, PairsRespectScoreCaliper) {
  Rng rng{7};
  UnitTable treated{1};
  UnitTable control{1};
  for (int i = 0; i < 400; ++i) {
    treated.push_back(rng.uniform(), {rng.normal(0.5, 1.0)});
    control.push_back(rng.uniform(), {rng.normal(-0.5, 1.0)});
  }
  PropensityOptions options;
  options.score_caliper = 0.03;
  const auto result = propensity_match(treated, control, options);
  ASSERT_FALSE(result.pairs.empty());
  for (const auto& p : result.pairs) {
    EXPECT_LE(std::fabs(result.treated_scores[p.treated_index] -
                        result.control_scores[p.control_index]),
              0.03 + 1e-12);
  }
}

TEST(PropensityMatch, BalancesCovariatesOnOverlap) {
  // Shifted but overlapping groups: matched subsample must be balanced.
  Rng rng{9};
  UnitTable treated{1};
  UnitTable control{1};
  for (int i = 0; i < 600; ++i) {
    treated.push_back(0, {rng.lognormal(0.5, 0.5)});
    control.push_back(0, {rng.lognormal(0.0, 0.5)});
  }
  const auto result = propensity_match(treated, control, {});
  ASSERT_GT(result.pairs.size(), 100u);
  const auto smd = standardized_mean_differences(
      treated, control, result.pairs);
  ASSERT_EQ(smd.size(), 1u);
  EXPECT_LT(std::fabs(smd[0]), 0.25);  // raw SMD is ~1.0
}

TEST(PropensityMatch, YieldsMorePairsThanTightCalipers) {
  // The classic trade-off the ablation bench quantifies: propensity
  // matching on a coarse score accepts pairs exact calipers reject.
  Rng rng{11};
  UnitTable treated{2};
  UnitTable control{2};
  for (int i = 0; i < 500; ++i) {
    treated.push_back(0, {rng.lognormal(1.0, 0.9), rng.lognormal(3.0, 0.7)});
    control.push_back(0, {rng.lognormal(0.6, 0.9), rng.lognormal(2.6, 0.7)});
  }
  const auto prop = propensity_match(treated, control, {});
  const auto exact = CaliperMatcher{MatcherOptions{.caliper = 0.1}}.match(treated, control);
  EXPECT_GT(prop.pairs.size(), exact.size());
}

TEST(PropensityMatch, EmptyInputsAreGraceful) {
  EXPECT_TRUE(propensity_match({}, {}, {}).pairs.empty());
}

}  // namespace
}  // namespace bblab::causal
