#include "market/country.h"

#include <algorithm>
#include <array>
#include <utility>

#include "core/error.h"
#include "core/hash.h"

namespace bblab::market {

std::string region_label(Region region) {
  switch (region) {
    case Region::kAfrica: return "Africa";
    case Region::kAsiaDeveloped: return "Asia (developed)";
    case Region::kAsiaDeveloping: return "Asia (developing)";
    case Region::kCentralAmerica: return "Central America/Caribbean";
    case Region::kEurope: return "Europe";
    case Region::kMiddleEast: return "Middle East";
    case Region::kNorthAmerica: return "North America";
    case Region::kSouthAmerica: return "South America";
    case Region::kOceania: return "Oceania";
  }
  return "?";
}

std::span<const Region> table5_regions() {
  static constexpr std::array<Region, 8> kRegions{
      Region::kAfrica,       Region::kAsiaDeveloped, Region::kAsiaDeveloping,
      Region::kCentralAmerica, Region::kEurope,      Region::kMiddleEast,
      Region::kNorthAmerica, Region::kSouthAmerica};
  return kRegions;
}

World::World(std::vector<CountryProfile> countries) : countries_{std::move(countries)} {
  require(!countries_.empty(), "World: must contain at least one country");
  std::sort(countries_.begin(), countries_.end(),
            [](const CountryProfile& a, const CountryProfile& b) { return a.code < b.code; });
  for (std::size_t i = 1; i < countries_.size(); ++i) {
    if (countries_[i - 1].code == countries_[i].code) {
      throw InvalidArgument{"World: duplicate country code " + countries_[i].code};
    }
  }
}

const CountryProfile& World::at(const std::string& code) const {
  const auto it = std::lower_bound(
      countries_.begin(), countries_.end(), code,
      [](const CountryProfile& c, const std::string& k) { return c.code < k; });
  if (it == countries_.end() || it->code != code) {
    throw InvalidArgument{"World: unknown country " + code};
  }
  return *it;
}

bool World::contains(const std::string& code) const {
  const auto it = std::lower_bound(
      countries_.begin(), countries_.end(), code,
      [](const CountryProfile& c, const std::string& k) { return c.code < k; });
  return it != countries_.end() && it->code == code;
}

std::vector<const CountryProfile*> World::in_region(Region region) const {
  std::vector<const CountryProfile*> out;
  for (const auto& c : countries_) {
    if (c.region == region) out.push_back(&c);
  }
  return out;
}

World World::subset(std::span<const std::string> codes) const {
  std::vector<CountryProfile> picked;
  picked.reserve(codes.size());
  for (const auto& code : codes) picked.push_back(at(code));
  return World{std::move(picked)};
}

void CountryProfile::fingerprint(core::Hasher& hasher) const {
  hasher.update_string("market::CountryProfile");
  hasher.update_string(code);
  hasher.update_string(name);
  hasher.update_u32(static_cast<std::uint32_t>(region));
  hasher.update_double(gdp_per_capita_ppp);
  hasher.update_string(currency.code());
  hasher.update_double(currency.units_per_usd_market());
  hasher.update_double(currency.units_per_usd_ppp());
  hasher.update_double(access_price.dollars());
  hasher.update_double(upgrade_cost_per_mbps);
  hasher.update_double(max_capacity.bps());
  hasher.update_double(typical_capacity.bps());
  hasher.update_double(price_noise_sigma);
  hasher.update_double(dedicated_share);
  hasher.update_double(base_rtt_ms);
  hasher.update_double(rtt_log_sigma);
  hasher.update_double(base_loss);
  hasher.update_double(loss_log_sigma);
  hasher.update_double(wireless_share);
  hasher.update_double(sample_weight);
}

void World::fingerprint(core::Hasher& hasher) const {
  hasher.update_string("market::World");
  hasher.update_u64(countries_.size());
  for (const auto& country : countries_) country.fingerprint(hasher);
}

namespace {

// Shorthand constructors keep the 60-entry table legible.
Rate M(double mbps) { return Rate::from_mbps(mbps); }
MoneyPpp D(double dollars) { return MoneyPpp::usd(dollars); }

}  // namespace

const World& World::builtin() {
  static const World instance = [] {
    std::vector<CountryProfile> c;
  c.reserve(64);

  // ------------------------------------------------------------------
  // Case-study anchors (Table 4): Botswana, Saudi Arabia, US, Japan.
  // Access prices, typical capacities, GDP per capita and income shares
  // match the paper's reported values.
  // ------------------------------------------------------------------
  c.push_back({.code = "BW", .name = "Botswana", .region = Region::kAfrica,
               .gdp_per_capita_ppp = 14993, .currency = {"BWP", 8.5, 4.6},
               .access_price = D(150), .upgrade_cost_per_mbps = 75.0,
               .max_capacity = M(4), .typical_capacity = M(0.52),
               .price_noise_sigma = 0.10, .dedicated_share = 0.0,
               .base_rtt_ms = 240, .rtt_log_sigma = 0.35,
               .base_loss = 0.004, .loss_log_sigma = 1.0,
               .wireless_share = 0.25, .sample_weight = 67});
  c.push_back({.code = "SA", .name = "Saudi Arabia", .region = Region::kMiddleEast,
               .gdp_per_capita_ppp = 29114, .currency = {"SAR", 3.75, 1.8},
               .access_price = D(60), .upgrade_cost_per_mbps = 15.0,
               .max_capacity = M(20), .typical_capacity = M(4.2),
               .price_noise_sigma = 0.10, .dedicated_share = 0.0,
               .base_rtt_ms = 130, .rtt_log_sigma = 0.35,
               .base_loss = 0.002, .loss_log_sigma = 1.0,
               .wireless_share = 0.12, .sample_weight = 120});
  c.push_back({.code = "US", .name = "United States", .region = Region::kNorthAmerica,
               .gdp_per_capita_ppp = 49797, .currency = Currency::usd(),
               .access_price = D(20), .upgrade_cost_per_mbps = 0.96,
               .max_capacity = M(105), .typical_capacity = M(17.6),
               .price_noise_sigma = 0.10, .dedicated_share = 0.0,
               .base_rtt_ms = 42, .rtt_log_sigma = 0.45,
               .base_loss = 0.0006, .loss_log_sigma = 1.1,
               .wireless_share = 0.04, .sample_weight = 3759});
  c.push_back({.code = "JP", .name = "Japan", .region = Region::kAsiaDeveloped,
               .gdp_per_capita_ppp = 34532, .currency = {"JPY", 100, 104},
               .access_price = D(20), .upgrade_cost_per_mbps = 0.20,
               .max_capacity = M(200), .typical_capacity = M(29),
               .price_noise_sigma = 0.08, .dedicated_share = 0.0,
               .base_rtt_ms = 30, .rtt_log_sigma = 0.35,
               .base_loss = 0.0004, .loss_log_sigma = 1.0,
               .wireless_share = 0.02, .sample_weight = 73});

  // ------------------------------------------------------------------
  // Quality case study (§7): India — similar upgrade slope to the US,
  // much higher access price, and systematically poor latency/loss.
  // ------------------------------------------------------------------
  c.push_back({.code = "IN", .name = "India", .region = Region::kAsiaDeveloping,
               .gdp_per_capita_ppp = 5200, .currency = {"INR", 60, 17},
               .access_price = D(67), .upgrade_cost_per_mbps = 0.85,
               .max_capacity = M(16), .typical_capacity = M(2),
               .price_noise_sigma = 0.12, .dedicated_share = 0.02,
               .base_rtt_ms = 260, .rtt_log_sigma = 0.30,
               .base_loss = 0.012, .loss_log_sigma = 0.9,
               .wireless_share = 0.20, .sample_weight = 480});

  // ------------------------------------------------------------------
  // Africa. Regional Table 5 targets: >$1 100%, >$5 ~84%, >$10 ~74%.
  // ------------------------------------------------------------------
  c.push_back({.code = "GH", .name = "Ghana", .region = Region::kAfrica,
               .gdp_per_capita_ppp = 3900, .currency = {"GHS", 2.0, 0.9},
               .access_price = D(80), .upgrade_cost_per_mbps = 20.0,
               .max_capacity = M(8), .typical_capacity = M(1),
               .base_rtt_ms = 210, .base_loss = 0.006,
               .wireless_share = 0.35, .sample_weight = 90});
  c.push_back({.code = "UG", .name = "Uganda", .region = Region::kAfrica,
               .gdp_per_capita_ppp = 1700, .currency = {"UGX", 2600, 1100},
               .access_price = D(95), .upgrade_cost_per_mbps = 25.0,
               .max_capacity = M(6), .typical_capacity = M(0.8),
               .base_rtt_ms = 230, .base_loss = 0.008,
               .wireless_share = 0.45, .sample_weight = 60});
  c.push_back({.code = "NG", .name = "Nigeria", .region = Region::kAfrica,
               .gdp_per_capita_ppp = 5400, .currency = {"NGN", 160, 80},
               .access_price = D(70), .upgrade_cost_per_mbps = 12.0,
               .max_capacity = M(10), .typical_capacity = M(1.2),
               .base_rtt_ms = 200, .base_loss = 0.007,
               .wireless_share = 0.40, .sample_weight = 120});
  c.push_back({.code = "KE", .name = "Kenya", .region = Region::kAfrica,
               .gdp_per_capita_ppp = 2800, .currency = {"KES", 86, 38},
               .access_price = D(55), .upgrade_cost_per_mbps = 11.0,
               .max_capacity = M(10), .typical_capacity = M(1.5),
               .base_rtt_ms = 190, .base_loss = 0.005,
               .wireless_share = 0.35, .sample_weight = 80});
  c.push_back({.code = "ZA", .name = "South Africa", .region = Region::kAfrica,
               .gdp_per_capita_ppp = 11500, .currency = {"ZAR", 10, 5},
               .access_price = D(35), .upgrade_cost_per_mbps = 6.0,
               .max_capacity = M(20), .typical_capacity = M(2.5),
               .base_rtt_ms = 160, .base_loss = 0.003,
               .wireless_share = 0.20, .sample_weight = 180});
  c.push_back({.code = "EG", .name = "Egypt", .region = Region::kAfrica,
               .gdp_per_capita_ppp = 10500, .currency = {"EGP", 7, 2.4},
               .access_price = D(31), .upgrade_cost_per_mbps = 3.0,
               .max_capacity = M(16), .typical_capacity = M(2),
               .base_rtt_ms = 140, .base_loss = 0.003,
               .wireless_share = 0.12, .sample_weight = 220});
  c.push_back({.code = "MA", .name = "Morocco", .region = Region::kAfrica,
               .gdp_per_capita_ppp = 7000, .currency = {"MAD", 8.3, 4.1},
               .access_price = D(29), .upgrade_cost_per_mbps = 2.5,
               .max_capacity = M(20), .typical_capacity = M(2.5),
               .base_rtt_ms = 120, .base_loss = 0.002,
               .wireless_share = 0.10, .sample_weight = 140});
  c.push_back({.code = "CI", .name = "Ivory Coast", .region = Region::kAfrica,
               .gdp_per_capita_ppp = 2900, .currency = {"XOF", 494, 230},
               .access_price = D(110), .upgrade_cost_per_mbps = 120.0,
               .max_capacity = M(2), .typical_capacity = M(0.5),
               .base_rtt_ms = 250, .base_loss = 0.009,
               .wireless_share = 0.40, .sample_weight = 50});
  c.push_back({.code = "SN", .name = "Senegal", .region = Region::kAfrica,
               .gdp_per_capita_ppp = 2200, .currency = {"XOF", 494, 240},
               .access_price = D(75), .upgrade_cost_per_mbps = 15.0,
               .max_capacity = M(8), .typical_capacity = M(1),
               .base_rtt_ms = 220, .base_loss = 0.006,
               .wireless_share = 0.30, .sample_weight = 50});
  c.push_back({.code = "TZ", .name = "Tanzania", .region = Region::kAfrica,
               .gdp_per_capita_ppp = 1700, .currency = {"TZS", 1600, 650},
               .access_price = D(90), .upgrade_cost_per_mbps = 30.0,
               .max_capacity = M(4), .typical_capacity = M(0.7),
               .base_rtt_ms = 240, .base_loss = 0.009,
               .wireless_share = 0.45, .sample_weight = 40});
  c.push_back({.code = "ZM", .name = "Zambia", .region = Region::kAfrica,
               .gdp_per_capita_ppp = 3800, .currency = {"ZMW", 5.4, 2.8},
               .access_price = D(100), .upgrade_cost_per_mbps = 40.0,
               .max_capacity = M(4), .typical_capacity = M(0.6),
               .base_rtt_ms = 260, .base_loss = 0.010,
               .wireless_share = 0.50, .sample_weight = 36});

  // ------------------------------------------------------------------
  // Middle East. Table 5 targets: >$1 ~86%, >$5 ~57%, >$10 ~43%.
  // ------------------------------------------------------------------
  c.push_back({.code = "IR", .name = "Iran", .region = Region::kMiddleEast,
               .gdp_per_capita_ppp = 15600, .currency = {"IRR", 25000, 9000},
               .access_price = D(150), .upgrade_cost_per_mbps = 30.0,
               .max_capacity = M(8), .typical_capacity = M(1),
               .base_rtt_ms = 180, .base_loss = 0.005,
               .wireless_share = 0.15, .sample_weight = 170});
  c.push_back({.code = "AE", .name = "United Arab Emirates", .region = Region::kMiddleEast,
               .gdp_per_capita_ppp = 58000, .currency = {"AED", 3.67, 2.3},
               .access_price = D(45), .upgrade_cost_per_mbps = 6.0,
               .max_capacity = M(50), .typical_capacity = M(8),
               .base_rtt_ms = 110, .base_loss = 0.0015,
               .wireless_share = 0.05, .sample_weight = 85});
  c.push_back({.code = "IL", .name = "Israel", .region = Region::kMiddleEast,
               .gdp_per_capita_ppp = 32000, .currency = {"ILS", 3.6, 3.9},
               .access_price = D(22), .upgrade_cost_per_mbps = 0.80,
               .max_capacity = M(100), .typical_capacity = M(12),
               .base_rtt_ms = 70, .base_loss = 0.001,
               .wireless_share = 0.03, .sample_weight = 75});
  c.push_back({.code = "TR", .name = "Turkey", .region = Region::kMiddleEast,
               .gdp_per_capita_ppp = 18800, .currency = {"TRY", 1.9, 1.1},
               .access_price = D(30), .upgrade_cost_per_mbps = 3.0,
               .max_capacity = M(50), .typical_capacity = M(6),
               .base_rtt_ms = 90, .base_loss = 0.002,
               .wireless_share = 0.06, .sample_weight = 260});
  c.push_back({.code = "JO", .name = "Jordan", .region = Region::kMiddleEast,
               .gdp_per_capita_ppp = 11000, .currency = {"JOD", 0.71, 0.32},
               .access_price = D(55), .upgrade_cost_per_mbps = 12.0,
               .max_capacity = M(8), .typical_capacity = M(2),
               .base_rtt_ms = 150, .base_loss = 0.004,
               .wireless_share = 0.15, .sample_weight = 70});
  // Lebanon: the counter-correlation case — expensive access but cheap
  // incremental capacity — gives the §5 price experiment matching overlap
  // with low-cost markets on the upgrade-cost covariate.
  c.push_back({.code = "LB", .name = "Lebanon", .region = Region::kMiddleEast,
               .gdp_per_capita_ppp = 17000, .currency = {"LBP", 1500, 900},
               .access_price = D(70), .upgrade_cost_per_mbps = 1.2,
               .max_capacity = M(12), .typical_capacity = M(1.5),
               .base_rtt_ms = 120, .base_loss = 0.003,
               .wireless_share = 0.10, .sample_weight = 60});
  c.push_back({.code = "QA", .name = "Qatar", .region = Region::kMiddleEast,
               .gdp_per_capita_ppp = 98000, .currency = {"QAR", 3.64, 2.6},
               .access_price = D(40), .upgrade_cost_per_mbps = 2.0,
               .max_capacity = M(100), .typical_capacity = M(10),
               .base_rtt_ms = 120, .base_loss = 0.0015,
               .wireless_share = 0.04, .sample_weight = 40});

  // ------------------------------------------------------------------
  // Europe. Table 5 targets: >$1 ~10%, >$5 0%, >$10 0%.
  // ------------------------------------------------------------------
  c.push_back({.code = "DE", .name = "Germany", .region = Region::kEurope,
               .gdp_per_capita_ppp = 42000, .currency = {"EUR", 0.75, 0.78},
               .access_price = D(20), .upgrade_cost_per_mbps = 0.50,
               .max_capacity = M(100), .typical_capacity = M(14),
               .base_rtt_ms = 40, .base_loss = 0.0006,
               .wireless_share = 0.03, .sample_weight = 320});
  c.push_back({.code = "GB", .name = "United Kingdom", .region = Region::kEurope,
               .gdp_per_capita_ppp = 37000, .currency = {"GBP", 0.64, 0.69},
               .access_price = D(22), .upgrade_cost_per_mbps = 0.60,
               .max_capacity = M(120), .typical_capacity = M(13),
               .base_rtt_ms = 38, .base_loss = 0.0007,
               .wireless_share = 0.03, .sample_weight = 300});
  c.push_back({.code = "FR", .name = "France", .region = Region::kEurope,
               .gdp_per_capita_ppp = 36500, .currency = {"EUR", 0.75, 0.81},
               .access_price = D(25), .upgrade_cost_per_mbps = 0.40,
               .max_capacity = M(100), .typical_capacity = M(15),
               .base_rtt_ms = 40, .base_loss = 0.0006,
               .wireless_share = 0.02, .sample_weight = 280});
  c.push_back({.code = "SE", .name = "Sweden", .region = Region::kEurope,
               .gdp_per_capita_ppp = 43000, .currency = {"SEK", 6.5, 8.8},
               .access_price = D(24), .upgrade_cost_per_mbps = 0.15,
               .max_capacity = M(250), .typical_capacity = M(25),
               .base_rtt_ms = 32, .base_loss = 0.0004,
               .wireless_share = 0.02, .sample_weight = 140});
  c.push_back({.code = "NL", .name = "Netherlands", .region = Region::kEurope,
               .gdp_per_capita_ppp = 44000, .currency = {"EUR", 0.75, 0.82},
               .access_price = D(29), .upgrade_cost_per_mbps = 0.30,
               .max_capacity = M(180), .typical_capacity = M(22),
               .base_rtt_ms = 30, .base_loss = 0.0004,
               .wireless_share = 0.01, .sample_weight = 150});
  c.push_back({.code = "ES", .name = "Spain", .region = Region::kEurope,
               .gdp_per_capita_ppp = 31000, .currency = {"EUR", 0.75, 0.70},
               .access_price = D(32), .upgrade_cost_per_mbps = 0.90,
               .max_capacity = M(100), .typical_capacity = M(10),
               .base_rtt_ms = 48, .base_loss = 0.0008,
               .wireless_share = 0.03, .sample_weight = 210});
  c.push_back({.code = "IT", .name = "Italy", .region = Region::kEurope,
               .gdp_per_capita_ppp = 33000, .currency = {"EUR", 0.75, 0.77},
               .access_price = D(30), .upgrade_cost_per_mbps = 0.80,
               .max_capacity = M(50), .typical_capacity = M(8),
               .base_rtt_ms = 52, .base_loss = 0.0010,
               .wireless_share = 0.04, .sample_weight = 190});
  c.push_back({.code = "PL", .name = "Poland", .region = Region::kEurope,
               .gdp_per_capita_ppp = 22000, .currency = {"PLN", 3.2, 1.8},
               .access_price = D(18), .upgrade_cost_per_mbps = 0.70,
               .max_capacity = M(120), .typical_capacity = M(12),
               .base_rtt_ms = 50, .base_loss = 0.0009,
               .wireless_share = 0.04, .sample_weight = 170});
  c.push_back({.code = "RO", .name = "Romania", .region = Region::kEurope,
               .gdp_per_capita_ppp = 17000, .currency = {"RON", 3.3, 1.7},
               .access_price = D(12), .upgrade_cost_per_mbps = 0.12,
               .max_capacity = M(500), .typical_capacity = M(35),
               .base_rtt_ms = 45, .base_loss = 0.0007,
               .wireless_share = 0.02, .sample_weight = 120});
  c.push_back({.code = "GR", .name = "Greece", .region = Region::kEurope,
               .gdp_per_capita_ppp = 25000, .currency = {"EUR", 0.75, 0.68},
               .access_price = D(31), .upgrade_cost_per_mbps = 1.80,
               .max_capacity = M(24), .typical_capacity = M(5),
               .base_rtt_ms = 65, .base_loss = 0.0015,
               .wireless_share = 0.05, .sample_weight = 90});

  // ------------------------------------------------------------------
  // North America. Table 5 targets: all 0%.
  // ------------------------------------------------------------------
  c.push_back({.code = "CA", .name = "Canada", .region = Region::kNorthAmerica,
               .gdp_per_capita_ppp = 42000, .currency = {"CAD", 1.05, 1.25},
               .access_price = D(23), .upgrade_cost_per_mbps = 0.65,
               .max_capacity = M(150), .typical_capacity = M(16),
               .base_rtt_ms = 45, .base_loss = 0.0007,
               .wireless_share = 0.05, .sample_weight = 260});

  // ------------------------------------------------------------------
  // Asia (developed). Table 5 targets: all 0%; very cheap upgrades.
  // ------------------------------------------------------------------
  c.push_back({.code = "KR", .name = "South Korea", .region = Region::kAsiaDeveloped,
               .gdp_per_capita_ppp = 32000, .currency = {"KRW", 1100, 870},
               .access_price = D(18), .upgrade_cost_per_mbps = 0.07,
               .max_capacity = M(1000), .typical_capacity = M(45),
               .base_rtt_ms = 28, .base_loss = 0.0003,
               .wireless_share = 0.01, .sample_weight = 90});
  c.push_back({.code = "HK", .name = "Hong Kong", .region = Region::kAsiaDeveloped,
               .gdp_per_capita_ppp = 51000, .currency = {"HKD", 7.8, 5.7},
               .access_price = D(16), .upgrade_cost_per_mbps = 0.09,
               .max_capacity = M(1000), .typical_capacity = M(50),
               .base_rtt_ms = 30, .base_loss = 0.0003,
               .wireless_share = 0.01, .sample_weight = 60});
  c.push_back({.code = "SG", .name = "Singapore", .region = Region::kAsiaDeveloped,
               .gdp_per_capita_ppp = 62000, .currency = {"SGD", 1.25, 1.08},
               .access_price = D(24), .upgrade_cost_per_mbps = 0.30,
               .max_capacity = M(300), .typical_capacity = M(30),
               .base_rtt_ms = 35, .base_loss = 0.0004,
               .wireless_share = 0.01, .sample_weight = 55});

  // ------------------------------------------------------------------
  // Asia (developing). Table 5 targets: >$1 ~83%, >$5 ~58%, >$10 ~42%.
  // India and China are the two cheap-upgrade exceptions the paper notes.
  // ------------------------------------------------------------------
  c.push_back({.code = "CN", .name = "China", .region = Region::kAsiaDeveloping,
               .gdp_per_capita_ppp = 11000, .currency = {"CNY", 6.2, 3.5},
               .access_price = D(31), .upgrade_cost_per_mbps = 0.80,
               .max_capacity = M(50), .typical_capacity = M(6),
               .base_rtt_ms = 110, .base_loss = 0.003,
               .wireless_share = 0.06, .sample_weight = 440});
  c.push_back({.code = "PH", .name = "Philippines", .region = Region::kAsiaDeveloping,
               .gdp_per_capita_ppp = 6400, .currency = {"PHP", 43, 19},
               .access_price = D(42), .upgrade_cost_per_mbps = 6.0,
               .max_capacity = M(15), .typical_capacity = M(2.5),
               .base_rtt_ms = 140, .base_loss = 0.004,
               .wireless_share = 0.15, .sample_weight = 260});
  c.push_back({.code = "ID", .name = "Indonesia", .region = Region::kAsiaDeveloping,
               .gdp_per_capita_ppp = 9600, .currency = {"IDR", 10500, 3900},
               .access_price = D(48), .upgrade_cost_per_mbps = 10.5,
               .max_capacity = M(10), .typical_capacity = M(1.5),
               .base_rtt_ms = 150, .base_loss = 0.005,
               .wireless_share = 0.20, .sample_weight = 240});
  c.push_back({.code = "VN", .name = "Vietnam", .region = Region::kAsiaDeveloping,
               .gdp_per_capita_ppp = 5300, .currency = {"VND", 21000, 7800},
               .access_price = D(40), .upgrade_cost_per_mbps = 2.5,
               .max_capacity = M(30), .typical_capacity = M(4),
               .base_rtt_ms = 120, .base_loss = 0.003,
               .wireless_share = 0.08, .sample_weight = 200});
  c.push_back({.code = "TH", .name = "Thailand", .region = Region::kAsiaDeveloping,
               .gdp_per_capita_ppp = 14500, .currency = {"THB", 31, 17},
               .access_price = D(31), .upgrade_cost_per_mbps = 1.5,
               .max_capacity = M(50), .typical_capacity = M(7),
               .base_rtt_ms = 100, .base_loss = 0.002,
               .wireless_share = 0.06, .sample_weight = 220});
  c.push_back({.code = "MY", .name = "Malaysia", .region = Region::kAsiaDeveloping,
               .gdp_per_capita_ppp = 23000, .currency = {"MYR", 3.2, 1.6},
               .access_price = D(33), .upgrade_cost_per_mbps = 1.8,
               .max_capacity = M(30), .typical_capacity = M(5),
               .base_rtt_ms = 90, .base_loss = 0.002,
               .wireless_share = 0.06, .sample_weight = 190});
  c.push_back({.code = "PK", .name = "Pakistan", .region = Region::kAsiaDeveloping,
               .gdp_per_capita_ppp = 4400, .currency = {"PKR", 100, 30},
               .access_price = D(52), .upgrade_cost_per_mbps = 12.0,
               .max_capacity = M(8), .typical_capacity = M(1.2),
               .base_rtt_ms = 220, .base_loss = 0.008,
               .wireless_share = 0.25, .sample_weight = 140});
  c.push_back({.code = "BD", .name = "Bangladesh", .region = Region::kAsiaDeveloping,
               .gdp_per_capita_ppp = 2800, .currency = {"BDT", 78, 26},
               .access_price = D(58), .upgrade_cost_per_mbps = 15.0,
               .max_capacity = M(6), .typical_capacity = M(0.9),
               .base_rtt_ms = 230, .base_loss = 0.009,
               .wireless_share = 0.30, .sample_weight = 100});
  c.push_back({.code = "LK", .name = "Sri Lanka", .region = Region::kAsiaDeveloping,
               .gdp_per_capita_ppp = 9400, .currency = {"LKR", 130, 48},
               .access_price = D(35), .upgrade_cost_per_mbps = 5.5,
               .max_capacity = M(16), .typical_capacity = M(2),
               .base_rtt_ms = 160, .base_loss = 0.004,
               .wireless_share = 0.12, .sample_weight = 90});
  c.push_back({.code = "NP", .name = "Nepal", .region = Region::kAsiaDeveloping,
               .gdp_per_capita_ppp = 2200, .currency = {"NPR", 97, 32},
               .access_price = D(70), .upgrade_cost_per_mbps = 25.0,
               .max_capacity = M(4), .typical_capacity = M(0.6),
               .base_rtt_ms = 280, .base_loss = 0.012,
               .wireless_share = 0.35, .sample_weight = 50});
  c.push_back({.code = "KZ", .name = "Kazakhstan", .region = Region::kAsiaDeveloping,
               .gdp_per_capita_ppp = 13800, .currency = {"KZT", 152, 75},
               .access_price = D(38), .upgrade_cost_per_mbps = 11.0,
               .max_capacity = M(10), .typical_capacity = M(2),
               .base_rtt_ms = 140, .base_loss = 0.004,
               .wireless_share = 0.10, .sample_weight = 110});
  // Afghanistan: the paper's example of a weakly correlated market due to
  // expensive dedicated DSL lines that are slower than alternatives.
  c.push_back({.code = "AF", .name = "Afghanistan", .region = Region::kAsiaDeveloping,
               .gdp_per_capita_ppp = 1900, .currency = {"AFN", 56, 19},
               .access_price = D(120), .upgrade_cost_per_mbps = 35.0,
               .max_capacity = M(2), .typical_capacity = M(0.4),
               .price_noise_sigma = 0.30, .dedicated_share = 0.40,
               .base_rtt_ms = 320, .rtt_log_sigma = 0.35,
               .base_loss = 0.015, .loss_log_sigma = 1.0,
               .wireless_share = 0.50, .sample_weight = 30});

  // ------------------------------------------------------------------
  // Central America / Caribbean. Table 5 targets: >$1 100%, >$5 ~86%,
  // >$10 ~14%.
  // ------------------------------------------------------------------
  c.push_back({.code = "MX", .name = "Mexico", .region = Region::kCentralAmerica,
               .gdp_per_capita_ppp = 16500, .currency = {"MXN", 13, 8},
               .access_price = D(35), .upgrade_cost_per_mbps = 5.5,
               .max_capacity = M(20), .typical_capacity = M(4),
               .base_rtt_ms = 90, .base_loss = 0.002,
               .wireless_share = 0.08, .sample_weight = 320});
  c.push_back({.code = "CR", .name = "Costa Rica", .region = Region::kCentralAmerica,
               .gdp_per_capita_ppp = 13500, .currency = {"CRC", 500, 340},
               .access_price = D(34), .upgrade_cost_per_mbps = 2.0,
               .max_capacity = M(15), .typical_capacity = M(3),
               .base_rtt_ms = 95, .base_loss = 0.002,
               .wireless_share = 0.08, .sample_weight = 80});
  c.push_back({.code = "PA", .name = "Panama", .region = Region::kCentralAmerica,
               .gdp_per_capita_ppp = 16500, .currency = {"PAB", 1.0, 0.55},
               .access_price = D(32), .upgrade_cost_per_mbps = 6.5,
               .max_capacity = M(15), .typical_capacity = M(3),
               .base_rtt_ms = 100, .base_loss = 0.002,
               .wireless_share = 0.08, .sample_weight = 70});
  c.push_back({.code = "GT", .name = "Guatemala", .region = Region::kCentralAmerica,
               .gdp_per_capita_ppp = 7300, .currency = {"GTQ", 7.8, 4.0},
               .access_price = D(45), .upgrade_cost_per_mbps = 8.0,
               .max_capacity = M(10), .typical_capacity = M(2),
               .base_rtt_ms = 120, .base_loss = 0.003,
               .wireless_share = 0.12, .sample_weight = 60});
  c.push_back({.code = "HN", .name = "Honduras", .region = Region::kCentralAmerica,
               .gdp_per_capita_ppp = 4600, .currency = {"HNL", 20, 10},
               .access_price = D(55), .upgrade_cost_per_mbps = 11.0,
               .max_capacity = M(6), .typical_capacity = M(1.2),
               .base_rtt_ms = 130, .base_loss = 0.004,
               .wireless_share = 0.15, .sample_weight = 50});
  c.push_back({.code = "JM", .name = "Jamaica", .region = Region::kCentralAmerica,
               .gdp_per_capita_ppp = 8900, .currency = {"JMD", 100, 55},
               .access_price = D(42), .upgrade_cost_per_mbps = 7.0,
               .max_capacity = M(12), .typical_capacity = M(2),
               .base_rtt_ms = 110, .base_loss = 0.003,
               .wireless_share = 0.10, .sample_weight = 56});
  c.push_back({.code = "DO", .name = "Dominican Republic", .region = Region::kCentralAmerica,
               .gdp_per_capita_ppp = 11500, .currency = {"DOP", 42, 22},
               .access_price = D(38), .upgrade_cost_per_mbps = 6.0,
               .max_capacity = M(15), .typical_capacity = M(2.5),
               .base_rtt_ms = 105, .base_loss = 0.003,
               .wireless_share = 0.10, .sample_weight = 64});

  // ------------------------------------------------------------------
  // South America. Table 5 targets: >$1 ~78%, >$5 ~55%, >$10 ~33%.
  // ------------------------------------------------------------------
  c.push_back({.code = "BR", .name = "Brazil", .region = Region::kSouthAmerica,
               .gdp_per_capita_ppp = 15000, .currency = {"BRL", 2.2, 1.7},
               .access_price = D(34), .upgrade_cost_per_mbps = 2.0,
               .max_capacity = M(35), .typical_capacity = M(5),
               .base_rtt_ms = 110, .base_loss = 0.003,
               .wireless_share = 0.08, .sample_weight = 520});
  c.push_back({.code = "AR", .name = "Argentina", .region = Region::kSouthAmerica,
               .gdp_per_capita_ppp = 18700, .currency = {"ARS", 5.5, 3.3},
               .access_price = D(30), .upgrade_cost_per_mbps = 3.0,
               .max_capacity = M(30), .typical_capacity = M(4),
               .base_rtt_ms = 130, .base_loss = 0.003,
               .wireless_share = 0.06, .sample_weight = 340});
  c.push_back({.code = "CL", .name = "Chile", .region = Region::kSouthAmerica,
               .gdp_per_capita_ppp = 21000, .currency = {"CLP", 500, 360},
               .access_price = D(26), .upgrade_cost_per_mbps = 0.90,
               .max_capacity = M(60), .typical_capacity = M(8),
               .base_rtt_ms = 120, .base_loss = 0.002,
               .wireless_share = 0.05, .sample_weight = 220});
  c.push_back({.code = "UY", .name = "Uruguay", .region = Region::kSouthAmerica,
               .gdp_per_capita_ppp = 18500, .currency = {"UYU", 21, 15},
               .access_price = D(24), .upgrade_cost_per_mbps = 0.80,
               .max_capacity = M(50), .typical_capacity = M(6),
               .base_rtt_ms = 125, .base_loss = 0.002,
               .wireless_share = 0.04, .sample_weight = 90});
  c.push_back({.code = "CO", .name = "Colombia", .region = Region::kSouthAmerica,
               .gdp_per_capita_ppp = 11500, .currency = {"COP", 1900, 1100},
               .access_price = D(36), .upgrade_cost_per_mbps = 6.0,
               .max_capacity = M(20), .typical_capacity = M(3),
               .base_rtt_ms = 115, .base_loss = 0.003,
               .wireless_share = 0.08, .sample_weight = 240});
  c.push_back({.code = "PE", .name = "Peru", .region = Region::kSouthAmerica,
               .gdp_per_capita_ppp = 11000, .currency = {"PEN", 2.8, 1.5},
               .access_price = D(40), .upgrade_cost_per_mbps = 7.0,
               .max_capacity = M(15), .typical_capacity = M(2.5),
               .base_rtt_ms = 125, .base_loss = 0.003,
               .wireless_share = 0.10, .sample_weight = 170});
  c.push_back({.code = "BO", .name = "Bolivia", .region = Region::kSouthAmerica,
               .gdp_per_capita_ppp = 5400, .currency = {"BOB", 6.9, 3.1},
               .access_price = D(65), .upgrade_cost_per_mbps = 14.0,
               .max_capacity = M(4), .typical_capacity = M(0.8),
               .base_rtt_ms = 160, .base_loss = 0.005,
               .wireless_share = 0.15, .sample_weight = 60});
  c.push_back({.code = "PY", .name = "Paraguay", .region = Region::kSouthAmerica,
               .gdp_per_capita_ppp = 7800, .currency = {"PYG", 4400, 2400},
               .access_price = D(80), .upgrade_cost_per_mbps = 110.0,
               .max_capacity = M(2), .typical_capacity = M(0.5),
               .base_rtt_ms = 170, .base_loss = 0.006,
               .wireless_share = 0.20, .sample_weight = 44});
  c.push_back({.code = "VE", .name = "Venezuela", .region = Region::kSouthAmerica,
               .gdp_per_capita_ppp = 17500, .currency = {"VEF", 6.3, 3.4},
               .access_price = D(50), .upgrade_cost_per_mbps = 11.0,
               .max_capacity = M(6), .typical_capacity = M(1.5),
               .base_rtt_ms = 150, .base_loss = 0.005,
               .wireless_share = 0.10, .sample_weight = 120});

  // ------------------------------------------------------------------
  // Oceania (not part of Table 5 in the paper, included for the $25-60
  // access-price band New Zealand anchors in §5).
  // ------------------------------------------------------------------
  c.push_back({.code = "AU", .name = "Australia", .region = Region::kOceania,
               .gdp_per_capita_ppp = 43000, .currency = {"AUD", 1.05, 1.5},
               .access_price = D(31), .upgrade_cost_per_mbps = 0.90,
               .max_capacity = M(100), .typical_capacity = M(10),
               .base_rtt_ms = 60, .base_loss = 0.001,
               .wireless_share = 0.06, .sample_weight = 180});
  c.push_back({.code = "NZ", .name = "New Zealand", .region = Region::kOceania,
               .gdp_per_capita_ppp = 32000, .currency = {"NZD", 1.2, 1.5},
               .access_price = D(34), .upgrade_cost_per_mbps = 1.2,
               .max_capacity = M(100), .typical_capacity = M(9),
               .base_rtt_ms = 65, .base_loss = 0.001,
               .wireless_share = 0.05, .sample_weight = 70});

    return World{std::move(c)};
  }();
  return instance;
}

}  // namespace bblab::market
