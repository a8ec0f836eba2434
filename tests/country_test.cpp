#include "market/country.h"

#include <gtest/gtest.h>

#include <set>

#include "core/error.h"

namespace bblab::market {
namespace {

TEST(World, BuiltinHasGlobalCoverage) {
  const World world = World::builtin();
  EXPECT_GE(world.size(), 55u);
  std::set<Region> regions;
  for (const auto& c : world.countries()) regions.insert(c.region);
  EXPECT_GE(regions.size(), 8u);
}

TEST(World, CaseStudyAnchorsMatchPaperTable4) {
  const World world = World::builtin();

  const auto& bw = world.at("BW");
  EXPECT_EQ(bw.name, "Botswana");
  EXPECT_DOUBLE_EQ(bw.gdp_per_capita_ppp, 14993);
  EXPECT_NEAR(bw.typical_capacity.mbps(), 0.52, 0.01);

  const auto& sa = world.at("SA");
  EXPECT_DOUBLE_EQ(sa.gdp_per_capita_ppp, 29114);
  EXPECT_NEAR(sa.typical_capacity.mbps(), 4.2, 0.1);

  const auto& us = world.at("US");
  EXPECT_DOUBLE_EQ(us.gdp_per_capita_ppp, 49797);
  EXPECT_NEAR(us.typical_capacity.mbps(), 17.6, 0.1);
  EXPECT_DOUBLE_EQ(us.sample_weight, 3759);

  const auto& jp = world.at("JP");
  EXPECT_DOUBLE_EQ(jp.gdp_per_capita_ppp, 34532);
  EXPECT_NEAR(jp.typical_capacity.mbps(), 29, 0.5);
}

TEST(World, AccessPriceBandsMatchSection5) {
  const World world = World::builtin();
  // <$25: Germany, Japan, US.
  EXPECT_LE(world.at("DE").access_price.dollars(), 25.0);
  EXPECT_LE(world.at("JP").access_price.dollars(), 25.0);
  EXPECT_LE(world.at("US").access_price.dollars(), 25.0);
  // $25-60: Mexico, New Zealand, Philippines.
  for (const auto* code : {"MX", "NZ", "PH"}) {
    const double p = world.at(code).access_price.dollars();
    EXPECT_GT(p, 25.0) << code;
    EXPECT_LE(p, 60.0) << code;
  }
  // >$60: Botswana, Saudi Arabia (at the boundary), Iran, India.
  EXPECT_GT(world.at("BW").access_price.dollars(), 60.0);
  EXPECT_GE(world.at("SA").access_price.dollars(), 60.0);
  EXPECT_GT(world.at("IR").access_price.dollars(), 60.0);
  EXPECT_GT(world.at("IN").access_price.dollars(), 60.0);
}

TEST(World, UpgradeCostAnchorsMatchSection6) {
  const World world = World::builtin();
  // Japan / South Korea / Hong Kong < $0.10 per Mbps... (paper Fig. 10)
  EXPECT_LT(world.at("JP").upgrade_cost_per_mbps, 0.25);
  EXPECT_LT(world.at("KR").upgrade_cost_per_mbps, 0.10);
  EXPECT_LT(world.at("HK").upgrade_cost_per_mbps, 0.10);
  // ...US / Canada around $0.50-1...
  EXPECT_GT(world.at("US").upgrade_cost_per_mbps, 0.4);
  EXPECT_LT(world.at("US").upgrade_cost_per_mbps, 1.1);
  // ...Ghana / Uganda high, Paraguay / Ivory Coast above $100.
  EXPECT_GT(world.at("GH").upgrade_cost_per_mbps, 10.0);
  EXPECT_GT(world.at("UG").upgrade_cost_per_mbps, 10.0);
  EXPECT_GT(world.at("PY").upgrade_cost_per_mbps, 100.0);
  EXPECT_GT(world.at("CI").upgrade_cost_per_mbps, 100.0);
  // India and China: the cheap-upgrade exceptions in developing Asia; the
  // paper notes US and India are within 25% of each other.
  EXPECT_LT(world.at("IN").upgrade_cost_per_mbps, 1.0);
  EXPECT_LT(world.at("CN").upgrade_cost_per_mbps, 1.0);
  const double us = world.at("US").upgrade_cost_per_mbps;
  const double in = world.at("IN").upgrade_cost_per_mbps;
  EXPECT_LE(std::abs(us - in), 0.25 * std::max(us, in));
}

TEST(World, IndiaQualityIsPoor) {
  const World world = World::builtin();
  const auto& in = world.at("IN");
  const auto& us = world.at("US");
  EXPECT_GT(in.base_rtt_ms, 3 * us.base_rtt_ms);
  EXPECT_GT(in.base_loss, 5 * us.base_loss);
}

TEST(World, IncomeShareMatchesTable4) {
  const World world = World::builtin();
  // Botswana ~8%, Saudi ~3.3%, US ~1.3% of monthly income — here computed
  // against the access price rather than the median tier, so allow slack.
  EXPECT_GT(world.at("BW").access_price_income_share(), 0.06);
  EXPECT_GT(world.at("SA").access_price_income_share(), 0.02);
  EXPECT_LT(world.at("US").access_price_income_share(), 0.02);
  EXPECT_LT(world.at("JP").access_price_income_share(), 0.02);
}

TEST(World, LookupAndSubset) {
  const World world = World::builtin();
  EXPECT_TRUE(world.contains("US"));
  EXPECT_FALSE(world.contains("XX"));
  EXPECT_THROW((void)world.at("XX"), InvalidArgument);

  const std::vector<std::string> codes{"BW", "SA", "US", "JP"};
  const World sub = world.subset(codes);
  EXPECT_EQ(sub.size(), 4u);
  EXPECT_TRUE(sub.contains("BW"));
  EXPECT_FALSE(sub.contains("DE"));
}

TEST(World, RejectsDuplicatesAndEmpty) {
  EXPECT_THROW(World{std::vector<CountryProfile>{}}, InvalidArgument);
  CountryProfile a;
  a.code = "AA";
  EXPECT_THROW(World(std::vector<CountryProfile>{a, a}), InvalidArgument);
}

TEST(Regions, Table5ExcludesOceania) {
  for (const auto region : table5_regions()) {
    EXPECT_NE(region, Region::kOceania);
  }
  EXPECT_EQ(table5_regions().size(), 8u);
}

}  // namespace
}  // namespace bblab::market
