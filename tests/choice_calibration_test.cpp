// Pins the willingness-to-pay calibration bit for bit and checks that the
// batched choice kernel behind it picks exactly what ChoiceModel::choose()
// picks, including the nothing-affordable fallback and price tie-breaks.
#include "market/choice.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/hash.h"
#include "core/rng.h"
#include "dataset/generator.h"
#include "stats/quantile.h"

namespace bblab::market {
namespace {

std::uint64_t bits_of(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

// Digest of (country code, multiplier bit pattern) over every builtin
// market that StudyGenerator::build_markets() calibrates for `seed`.
std::uint64_t multiplier_digest(std::uint64_t seed) {
  dataset::StudyConfig config;
  config.seed = seed;
  const auto markets = dataset::StudyGenerator{World::builtin(), config}.build_markets();
  core::Hasher h;
  for (const auto& [code, snap] : markets) {
    h.update_string(code);
    h.update_u64(bits_of(snap.choice.wtp_multiplier()));
  }
  return h.digest();
}

// Recorded from the per-household choose() loop the batched kernel
// replaced. libstdc++-specific: build_markets salts each market's Rng
// with std::hash<std::string> of the country code, so another standard
// library draws different catalogs and probes.
TEST(ChoiceCalibration, GoldenMultiplierDigest) {
  EXPECT_EQ(multiplier_digest(1), 0x708679f577a43eb0ULL);
  EXPECT_EQ(multiplier_digest(42), 0xa9c6e882dd213425ULL);
  EXPECT_EQ(multiplier_digest(2014), 0x99d5487f6ae4e129ULL);
}

std::vector<Household> probes_for(const CountryProfile& country, Rng& rng, int n = 256) {
  std::vector<Household> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(sample_household(country, rng));
  return out;
}

// The batch's pick for every household equals choose() at `multiplier`.
void expect_picks_match(const PlanCatalog& catalog, std::span<const Household> households,
                        double multiplier) {
  ChoiceBatch batch{catalog, households};
  const auto picks = batch.choose(multiplier);
  ASSERT_EQ(picks.size(), households.size());
  const ChoiceModel model{multiplier};
  std::vector<double> chosen;
  for (std::size_t h = 0; h < households.size(); ++h) {
    const auto expected = model.choose(households[h], catalog);
    ASSERT_TRUE(expected.has_value());
    ASSERT_LT(picks[h], catalog.plans().size());
    const ServicePlan& got = catalog.plans()[picks[h]];
    EXPECT_EQ(got.isp, expected->isp) << "household " << h << " m=" << multiplier;
    EXPECT_EQ(got.download, expected->download) << "household " << h << " m=" << multiplier;
    EXPECT_EQ(got.monthly_price, expected->monthly_price)
        << "household " << h << " m=" << multiplier;
    EXPECT_EQ(got.tech, expected->tech) << "household " << h << " m=" << multiplier;
    chosen.push_back(expected->download.mbps());
  }
  EXPECT_EQ(bits_of(batch.median_choice(multiplier)), bits_of(stats::median(chosen)))
      << "m=" << multiplier;
}

TEST(ChoiceCalibration, KernelMatchesChooseAtCalibratedMultiplier) {
  for (const std::uint64_t seed : {3ULL, 2014ULL}) {
    Rng rng{seed};
    for (const auto& country : World::builtin().countries()) {
      const auto catalog = PlanCatalog::generate(country, rng);
      const auto probes = probes_for(country, rng);
      const double m = ChoiceModel::calibrated(country, catalog, probes).wtp_multiplier();
      SCOPED_TRACE(country.code);
      expect_picks_match(catalog, probes, m);
    }
  }
}

TEST(ChoiceCalibration, KernelMatchesChooseAcrossBisectionRange) {
  Rng rng{77};
  for (const char* code : {"US", "BW", "AF", "JP", "IN"}) {
    const auto& country = World::builtin().at(code);
    const auto catalog = PlanCatalog::generate(country, rng);
    const auto probes = probes_for(country, rng, 64);
    SCOPED_TRACE(code);
    for (double m = 1e-3; m <= 1e4; m *= 3.7) expect_picks_match(catalog, probes, m);
    expect_picks_match(catalog, probes, 0.0);
  }
}

ServicePlan plan(std::string isp, double mbps, double price,
                 AccessTech tech = AccessTech::kDsl) {
  ServicePlan p;
  p.isp = std::move(isp);
  p.country_code = "ZZ";
  p.download = Rate::from_mbps(mbps);
  p.upload = Rate::from_mbps(mbps / 4.0);
  p.monthly_price = MoneyPpp::usd(price);
  p.tech = tech;
  return p;
}

std::vector<Household> households_with_budgets(std::initializer_list<double> budgets) {
  std::vector<Household> out;
  double need = 1.5;
  for (const double b : budgets) {
    Household h;
    h.need_mbps = need;
    h.budget = MoneyPpp::usd(b);
    h.value_scale = 0.6 * b;
    out.push_back(h);
    need *= 2.0;
  }
  return out;
}

TEST(ChoiceCalibration, KernelMatchesChooseOnRandomCatalogs) {
  // Every penalty (wireless, capped, dedicated) competitive somewhere,
  // prices drawn from a small set so equal-price ties are common.
  constexpr AccessTech kTechs[] = {AccessTech::kDsl, AccessTech::kCable, AccessTech::kFiber,
                                   AccessTech::kFixedWireless, AccessTech::kSatellite};
  Rng rng{4242};
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<ServicePlan> plans;
    const auto n_plans = rng.uniform_int(1, 12);
    for (std::int64_t p = 0; p < n_plans; ++p) {
      auto sp = plan(std::to_string(p), std::exp(rng.uniform(-1.0, 7.0)),
                     5.0 * static_cast<double>(rng.uniform_int(1, 12)),
                     kTechs[rng.uniform_int(0, 4)]);
      if (rng.bernoulli(0.3)) sp.monthly_cap = 100 * kGiB;
      sp.dedicated = rng.bernoulli(0.2);
      plans.push_back(std::move(sp));
    }
    const PlanCatalog catalog{std::move(plans)};
    std::vector<Household> households(48);
    for (auto& h : households) {
      h.need_mbps = std::exp(rng.uniform(-3.0, 5.0));
      h.budget = MoneyPpp::usd(rng.uniform(0.0, 70.0));
      h.value_scale = rng.uniform(0.5, 60.0);
    }
    SCOPED_TRACE(trial);
    for (double m = 1e-3; m <= 1e4; m *= 2.3) expect_picks_match(catalog, households, m);
  }
}

TEST(ChoiceCalibration, NothingAffordableFallsBackToFirstCheapest) {
  // Every plan is over every budget; two plans share the lowest price, so
  // the fallback must be the first of them.
  const PlanCatalog catalog{{plan("a", 10, 40.0), plan("b", 2, 25.0),
                             plan("c", 4, 25.0, AccessTech::kFixedWireless),
                             plan("d", 50, 90.0)}};
  const auto households = households_with_budgets({1.0, 5.0, 24.99, 0.0});
  for (const double m : {0.0, 1e-3, 1.0, 1e4}) expect_picks_match(catalog, households, m);
  ChoiceBatch batch{catalog, households};
  for (const std::uint32_t pick : batch.choose(1.0)) {
    EXPECT_EQ(catalog.plans()[pick].isp, "b");
  }
}

TEST(ChoiceCalibration, EqualPriceTiesKeepFirstSeen) {
  // Identical plans under different names (the first must win), an
  // equal-price plan with less capacity, and a wireless plan whose
  // perceived price equals a pricier wireline plan's: at m = 0 both have
  // utility -27 and the strictly cheaper one must win though it comes later.
  const PlanCatalog catalog{{plan("wired27", 1, 20.0 * 1.35), plan("first", 8, 30.0),
                             plan("second", 8, 30.0), plan("slow", 2, 30.0),
                             plan("air20", 1, 20.0, AccessTech::kSatellite),
                             plan("costly", 100, 500.0)}};
  const auto households = households_with_budgets({10.0, 28.0, 35.0, 60.0, 600.0});
  for (double m = 1e-3; m <= 1e4; m *= 1.9) expect_picks_match(catalog, households, m);
  expect_picks_match(catalog, households, 0.0);

  ChoiceBatch batch{catalog, households};
  const auto at_zero = batch.choose(0.0);
  EXPECT_EQ(catalog.plans()[at_zero[1]].isp, "air20");
  bool saw_first = false;
  for (double m = 1e-3; m <= 1e4; m *= 1.9) {
    for (const std::uint32_t pick : batch.choose(m)) {
      EXPECT_NE(catalog.plans()[pick].isp, "second");
      saw_first = saw_first || catalog.plans()[pick].isp == "first";
    }
  }
  EXPECT_TRUE(saw_first);
}

TEST(ChoiceCalibration, BatchRejectsEmptyCatalog) {
  const std::vector<Household> households(3);
  EXPECT_ANY_THROW(ChoiceBatch(PlanCatalog{}, households));
}

}  // namespace
}  // namespace bblab::market
