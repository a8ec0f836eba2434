#include "market/catalog.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/error.h"
#include "core/rng.h"
#include "market/country.h"

namespace bblab::market {
namespace {

PlanCatalog make_catalog(const std::string& code, std::uint64_t seed = 7) {
  Rng rng{seed};
  return PlanCatalog::generate(World::builtin().at(code), rng);
}

TEST(PlanCatalog, GeneratesPlausibleUsCatalog) {
  const auto catalog = make_catalog("US");
  EXPECT_GE(catalog.size(), 8u);
  for (const auto& plan : catalog.plans()) {
    EXPECT_EQ(plan.country_code, "US");
    EXPECT_GT(plan.download.mbps(), 0.0);
    EXPECT_GT(plan.upload.mbps(), 0.0);
    EXPECT_LE(plan.upload.bps(), plan.download.bps());
    EXPECT_GT(plan.monthly_price.dollars(), 0.0);
  }
}

TEST(PlanCatalog, AccessPriceNearCountryAnchor) {
  for (const auto* code : {"US", "JP", "BW", "IN", "DE"}) {
    const auto& country = World::builtin().at(code);
    const auto catalog = make_catalog(code);
    const auto access = catalog.access_price();
    ASSERT_TRUE(access.has_value()) << code;
    // Cheapest >=1 Mbps plan should land near the profile's anchor (noise
    // and min-of-several sampling pull it somewhat below).
    EXPECT_GT(access->dollars(), 0.4 * country.access_price.dollars()) << code;
    EXPECT_LT(access->dollars(), 1.6 * country.access_price.dollars()) << code;
  }
}

TEST(PlanCatalog, UpgradeSlopeMatchesAnchor) {
  for (const auto* code : {"US", "JP", "SA", "GH"}) {
    const auto& country = World::builtin().at(code);
    const auto fit = make_catalog(code).price_capacity_fit();
    EXPECT_GT(fit.slope, 0.3 * country.upgrade_cost_per_mbps) << code;
    EXPECT_LT(fit.slope, 3.0 * country.upgrade_cost_per_mbps) << code;
  }
}

TEST(PlanCatalog, WirelineMarketsStronglyCorrelated) {
  // Low-wireless developed markets should show the r > 0.8 the paper
  // reports for most markets.
  for (const auto* code : {"US", "DE", "JP", "FR"}) {
    const auto fit = make_catalog(code).price_capacity_fit();
    EXPECT_GT(fit.r, 0.8) << code;
  }
}

TEST(PlanCatalog, AfghanistanDedicatedLinesWeakenCorrelation) {
  const auto fit = make_catalog("AF").price_capacity_fit();
  EXPECT_LT(fit.r, 0.5);
}

TEST(PlanCatalog, Us100MbpsCostsRoughly115) {
  // §6: "a 100 Mbps plan ... $115 per month [in the US] instead of $40
  // [in Japan]". Average over seeds to smooth plan-level noise.
  double us_total = 0.0;
  double jp_total = 0.0;
  int n = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto us = make_catalog("US", seed).cheapest_at_least(Rate::from_mbps(100));
    const auto jp = make_catalog("JP", seed).cheapest_at_least(Rate::from_mbps(100));
    ASSERT_TRUE(us.has_value());
    ASSERT_TRUE(jp.has_value());
    us_total += us->monthly_price.dollars();
    jp_total += jp->monthly_price.dollars();
    ++n;
  }
  EXPECT_NEAR(us_total / n, 115.0, 30.0);
  EXPECT_NEAR(jp_total / n, 40.0, 15.0);
}

TEST(PlanCatalog, CheapestAtLeastRespectsThreshold) {
  const auto catalog = make_catalog("US");
  const auto plan = catalog.cheapest_at_least(Rate::from_mbps(10));
  ASSERT_TRUE(plan.has_value());
  EXPECT_GE(plan->download.mbps(), 10.0);
  for (const auto& other : catalog.plans()) {
    if (other.download.mbps() >= 10.0) {
      EXPECT_LE(plan->monthly_price.dollars(), other.monthly_price.dollars());
    }
  }
  // Nothing faster than the market's top speed.
  EXPECT_FALSE(catalog.cheapest_at_least(Rate::from_gbps(100)).has_value());
}

TEST(PlanCatalog, NearestTierFindsClosestInLogSpace) {
  const auto catalog = make_catalog("US");
  const auto& tier = catalog.nearest_tier(Rate::from_mbps(17.6));
  EXPECT_GT(tier.download.mbps(), 8.0);
  EXPECT_LT(tier.download.mbps(), 40.0);
  EXPECT_THROW((void)PlanCatalog{}.nearest_tier(Rate::from_mbps(1)), InvalidArgument);
}

TEST(PlanCatalog, ByCapacityIsSorted) {
  const auto sorted = make_catalog("DE").by_capacity();
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted[i - 1].download.bps(), sorted[i].download.bps());
  }
}

TEST(PlanCatalog, DeterministicGivenSeed) {
  const auto a = make_catalog("US", 99);
  const auto b = make_catalog("US", 99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.plans()[i].isp, b.plans()[i].isp);
    EXPECT_DOUBLE_EQ(a.plans()[i].monthly_price.dollars(),
                     b.plans()[i].monthly_price.dollars());
  }
}

TEST(PlanCatalog, WorldwideCorrelationSharesMatchSection6) {
  // "in the majority of these markets (66%) there is a strong correlation
  // (> 0.8) between price and capacity and in 81% there is at least
  // moderate correlation (> 0.4)".
  const World world = World::builtin();
  Rng rng{2014};
  std::size_t strong = 0;
  std::size_t moderate = 0;
  for (const auto& country : world.countries()) {
    const auto fit = PlanCatalog::generate(country, rng).price_capacity_fit();
    if (fit.r > 0.8) ++strong;
    if (fit.r > 0.4) ++moderate;
  }
  // Our synthesized catalogs are somewhat cleaner than the real 2013
  // survey, so the shares run high; the shape requirement is that most
  // markets correlate strongly, nearly all at least moderately, and a
  // nonzero set (Afghanistan-style) stays weak.
  const auto n = static_cast<double>(world.size());
  const double strong_share = static_cast<double>(strong) / n;
  const double moderate_share = static_cast<double>(moderate) / n;
  EXPECT_GT(strong_share, 0.55);
  EXPECT_GE(moderate_share, strong_share);
  EXPECT_LT(moderate_share, 1.0);
}

}  // namespace
}  // namespace bblab::market
