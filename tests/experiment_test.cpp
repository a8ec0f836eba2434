#include "causal/experiment.h"

#include <gtest/gtest.h>

#include "core/rng.h"

namespace bblab::causal {
namespace {

/// Build treated/control pools with a shared confounder; `effect` shifts
/// treated outcomes multiplicatively.
void build_pools(double effect, std::size_t n, Rng& rng, UnitTable& treated,
                 UnitTable& control) {
  for (std::size_t i = 0; i < n; ++i) {
    const double conf_t = rng.lognormal(2.0, 0.6);
    const double conf_c = rng.lognormal(2.0, 0.6);
    treated.push_back(conf_t * effect * rng.lognormal(0.0, 0.5), {conf_t});
    control.push_back(conf_c * rng.lognormal(0.0, 0.5), {conf_c});
  }
}

TEST(NaturalExperiment, DetectsPlantedEffect) {
  Rng rng{3};
  UnitTable treated{1};
  UnitTable control{1};
  build_pools(1.6, 1500, rng, treated, control);
  const NaturalExperiment experiment{};
  const auto result = experiment.run("planted", treated, control);
  EXPECT_GT(result.pairs, 500u);
  EXPECT_GT(result.test.fraction, 0.56);
  EXPECT_TRUE(result.test.conclusive()) << result.to_string();
}

TEST(NaturalExperiment, NullEffectIsInconclusive) {
  Rng rng{5};
  UnitTable treated{1};
  UnitTable control{1};
  build_pools(1.0, 1500, rng, treated, control);
  const NaturalExperiment experiment{};
  const auto result = experiment.run("placebo", treated, control);
  EXPECT_GT(result.pairs, 500u);
  EXPECT_NEAR(result.test.fraction, 0.5, 0.04);
  EXPECT_FALSE(result.test.conclusive()) << result.to_string();
}

TEST(NaturalExperiment, ConfoundingWithoutMatchingWouldMislead) {
  // Treated pool has larger confounder values AND outcome = confounder
  // (no real effect). The caliper matching must keep the comparison fair.
  Rng rng{7};
  UnitTable treated{1};
  UnitTable control{1};
  for (int i = 0; i < 1200; ++i) {
    const double conf_t = rng.lognormal(2.5, 0.5);  // systematically larger
    const double conf_c = rng.lognormal(2.0, 0.5);
    treated.push_back(conf_t * rng.lognormal(0, 0.3), {conf_t});
    control.push_back(conf_c * rng.lognormal(0, 0.3), {conf_c});
  }
  const NaturalExperiment experiment{};
  const auto result = experiment.run("confounded-null", treated, control);
  ASSERT_GT(result.pairs, 100u);
  // With matching, the spurious effect should shrink into inconclusive
  // territory (without matching ~70% of random pairs would favor treated).
  EXPECT_LT(result.test.fraction, 0.56) << result.to_string();
}

TEST(NaturalExperiment, TooFewPairsNeverSignificant) {
  UnitTable treated{1};
  UnitTable control{1};
  for (int i = 0; i < 5; ++i) {
    treated.push_back(10.0 + i, {1.0});
    control.push_back(1.0 + i, {1.0});
  }
  const NaturalExperiment experiment{};
  const auto result = experiment.run("tiny", treated, control);
  EXPECT_EQ(result.pairs, 5u);
  EXPECT_FALSE(result.test.significant);
}

TEST(NaturalExperiment, TiesAreDroppedByDefault) {
  UnitTable treated{1};
  UnitTable control{1};
  for (int i = 0; i < 50; ++i) {
    treated.push_back(7.0, {1.0});
    control.push_back(7.0, {1.0});
  }
  const NaturalExperiment experiment{};
  const auto result = experiment.run("ties", treated, control);
  EXPECT_EQ(result.pairs, 50u);
  EXPECT_EQ(result.test.trials, 0u);
}

TEST(NaturalExperiment, BalanceReported) {
  Rng rng{11};
  UnitTable treated{1};
  UnitTable control{1};
  build_pools(1.2, 500, rng, treated, control);
  const auto result = NaturalExperiment{}.run("balance", treated, control);
  ASSERT_EQ(result.balance.size(), 1u);
  EXPECT_LT(std::abs(result.balance[0]), 0.15);
}

TEST(PairedExperiment, DetectsWithinUserIncrease) {
  Rng rng{13};
  std::vector<std::pair<double, double>> outcomes;
  for (int i = 0; i < 800; ++i) {
    const double before = rng.lognormal(1.0, 0.8);
    // ~70% of users increase.
    const double after = before * (rng.bernoulli(0.7) ? 1.5 : 0.8);
    outcomes.emplace_back(before, after);
  }
  const auto result = paired_experiment("upgrades", outcomes);
  EXPECT_NEAR(result.test.fraction, 0.7, 0.05);
  EXPECT_TRUE(result.test.conclusive());
}

TEST(PairedExperiment, NullIsInconclusive) {
  Rng rng{17};
  std::vector<std::pair<double, double>> outcomes;
  for (int i = 0; i < 800; ++i) {
    outcomes.emplace_back(rng.lognormal(1.0, 0.8), rng.lognormal(1.0, 0.8));
  }
  const auto result = paired_experiment("null", outcomes);
  EXPECT_FALSE(result.test.conclusive());
}

TEST(PairedExperiment, EmptyInput) {
  const auto result = paired_experiment("empty", {});
  EXPECT_EQ(result.pairs, 0u);
  EXPECT_FALSE(result.test.significant);
  EXPECT_DOUBLE_EQ(result.test.p_value, 1.0);
}

TEST(ExperimentResult, ToStringMentionsEverything) {
  Rng rng{19};
  UnitTable treated{1};
  UnitTable control{1};
  build_pools(1.5, 300, rng, treated, control);
  const auto result = NaturalExperiment{}.run("fmt", treated, control);
  const auto s = result.to_string();
  EXPECT_NE(s.find("fmt"), std::string::npos);
  EXPECT_NE(s.find("pairs"), std::string::npos);
  EXPECT_NE(s.find("H holds"), std::string::npos);
}

}  // namespace
}  // namespace bblab::causal
