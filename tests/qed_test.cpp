#include "causal/qed.h"

#include <gtest/gtest.h>

#include "core/rng.h"
#include "stats/binomial.h"

namespace bblab::causal {
namespace {

void build_pools(double effect, std::size_t n, Rng& rng, UnitTable& treated,
                 UnitTable& control) {
  for (std::size_t i = 0; i < n; ++i) {
    const double conf_t = rng.lognormal(2.0, 0.6);
    const double conf_c = rng.lognormal(2.0, 0.6);
    treated.push_back(conf_t * effect * rng.lognormal(0.0, 0.4), {conf_t});
    control.push_back(conf_c * rng.lognormal(0.0, 0.4), {conf_c});
  }
}

TEST(SignTest, ExactSmallCases) {
  // 10 trials, 8 wins: two-sided p = 2 * P(X >= 8) = 2 * 56/1024.
  EXPECT_NEAR(sign_test_p(8, 10), 2.0 * 56.0 / 1024.0, 1e-12);
  // Perfectly balanced: p = 1 (or slightly above before the clamp).
  EXPECT_DOUBLE_EQ(sign_test_p(5, 10), 1.0);
  EXPECT_DOUBLE_EQ(sign_test_p(0, 0), 1.0);
}

TEST(SignTest, SymmetricInWinsLosses) {
  for (std::uint64_t w : {0ULL, 3ULL, 10ULL, 17ULL}) {
    EXPECT_NEAR(sign_test_p(w, 20), sign_test_p(20 - w, 20), 1e-12) << w;
  }
}

TEST(QuasiExperiment, DetectsPlantedEffectWithSizeEstimate) {
  Rng rng{3};
  UnitTable treated{1};
  UnitTable control{1};
  build_pools(1.5, 1200, rng, treated, control);
  const QuasiExperiment qed{};
  const auto result = qed.run("planted", treated, control);
  ASSERT_GT(result.pairs, 400u);
  EXPECT_GT(result.net_score, 0.10) << result.to_string();
  EXPECT_TRUE(result.significant);
  // ATE positive, CI excludes zero, ordered correctly.
  EXPECT_GT(result.ate, 0.0);
  EXPECT_GT(result.ate_ci_lo, 0.0);
  EXPECT_LE(result.ate_ci_lo, result.ate);
  EXPECT_GE(result.ate_ci_hi, result.ate);
  EXPECT_GT(result.median_effect, 0.0);
}

TEST(QuasiExperiment, NullEffectIsInsignificant) {
  Rng rng{5};
  UnitTable treated{1};
  UnitTable control{1};
  build_pools(1.0, 1200, rng, treated, control);
  const auto result = QuasiExperiment{}.run("null", treated, control);
  ASSERT_GT(result.pairs, 400u);
  EXPECT_NEAR(result.net_score, 0.0, 0.08) << result.to_string();
  EXPECT_FALSE(result.significant);
  // CI straddles zero.
  EXPECT_LT(result.ate_ci_lo, 0.0 + 1e-12);
  EXPECT_GT(result.ate_ci_hi, 0.0 - 1e-12);
}

TEST(QuasiExperiment, DeterministicGivenSeed) {
  Rng rng{7};
  UnitTable treated{1};
  UnitTable control{1};
  build_pools(1.3, 300, rng, treated, control);
  const auto a = QuasiExperiment{}.run("d", treated, control);
  const auto b = QuasiExperiment{}.run("d", treated, control);
  EXPECT_DOUBLE_EQ(a.ate_ci_lo, b.ate_ci_lo);
  EXPECT_DOUBLE_EQ(a.ate_ci_hi, b.ate_ci_hi);
}

TEST(QuasiExperiment, EmptyPoolsAreGraceful) {
  const auto result = QuasiExperiment{}.run("empty", {}, {});
  EXPECT_EQ(result.pairs, 0u);
  EXPECT_FALSE(result.significant);
  EXPECT_DOUBLE_EQ(result.sign_p_value, 1.0);
}

TEST(QuasiExperiment, AgreesInDirectionWithNaturalExperiment) {
  // The two designs should agree on direction for a clear planted effect.
  Rng rng{11};
  UnitTable treated{1};
  UnitTable control{1};
  build_pools(1.6, 800, rng, treated, control);
  const auto qed = QuasiExperiment{}.run("q", treated, control);
  EXPECT_GT(qed.net_score, 0.0);
  // Net score and the NE fraction are linked: frac = (net+1)/2 over
  // decisive pairs.
  EXPECT_GT((qed.net_score + 1.0) / 2.0, 0.55);
}

}  // namespace
}  // namespace bblab::causal
