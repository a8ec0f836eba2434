// Consumer plan choice: need, want, can afford.
//
// The paper's causal story is that subscribers arrive at a market with
// needs and budgets, pick a plan under the market's prices, and their
// subsequent usage is shaped by what they picked (§3). We model that
// directly: a household has a latent bandwidth need, a monthly budget, and
// a willingness-to-pay scale; plan utility is a saturating value of
// capacity minus price, maximized subject to the budget. In expensive
// markets the same need buys less capacity — which is precisely the
// mechanism behind the §5/§6 price results.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/rng.h"
#include "core/units.h"
#include "market/catalog.h"
#include "market/country.h"

namespace bblab::market {

/// A subscriber household's latent economic parameters.
struct Household {
  /// Peak bandwidth the household could productively use (Mbps).
  double need_mbps{4.0};
  /// Hard monthly spending cap (USD PPP).
  MoneyPpp budget{MoneyPpp::usd(60.0)};
  /// Dollars of perceived value per unit of saturating capacity-value;
  /// scales willingness to pay for speed.
  double value_scale{15.0};
};

/// The household-independent factors of a plan's utility. Households
/// discount fixed-wireless/satellite service (reliability, latency) and
/// data-capped plans relative to unmetered wireline: these exist in the
/// catalogs but are not substitutes for home broadband. The wireless
/// penalty applies to both sides of the trade-off (value and perceived
/// price) so it binds even for extremely price-driven households. A
/// factor that does not apply is exactly 1.
struct PlanTerms {
  double wireless_value{1.0};
  double capped_value{1.0};
  double dedicated_value{1.0};  ///< business lines: no consumer appeal
  double price_markup{1.0};

  [[nodiscard]] static PlanTerms of(const ServicePlan& plan);
};

class ChoiceModel {
 public:
  /// `wtp_multiplier` rescales every household's value_scale; the catalog
  /// generator calibrates it per market so median choices land on the
  /// market's typical capacity.
  explicit ChoiceModel(double wtp_multiplier = 1.0) : wtp_multiplier_{wtp_multiplier} {}

  /// Saturating value of a capacity for a household (diminishing returns:
  /// marginal value halves once capacity reaches the need).
  [[nodiscard]] double capacity_value(const Household& household, Rate capacity) const;

  /// Net utility of a plan; negative infinity if over budget.
  [[nodiscard]] double utility(const Household& household, const ServicePlan& plan) const;

  /// The utility-maximizing affordable plan. Falls back to the cheapest
  /// plan when nothing is affordable (subscribers in the datasets are, by
  /// construction, online). nullopt only for an empty catalog.
  [[nodiscard]] std::optional<ServicePlan> choose(const Household& household,
                                                  const PlanCatalog& catalog) const;

  [[nodiscard]] double wtp_multiplier() const { return wtp_multiplier_; }

  /// Calibrate the willingness-to-pay multiplier so that the median of
  /// `probe_households` chooses within a factor of ~1.5 of
  /// `country.typical_capacity` from `catalog`. Binary search on the
  /// multiplier over a ChoiceBatch of the probes; deterministic.
  [[nodiscard]] static ChoiceModel calibrated(const CountryProfile& country,
                                              const PlanCatalog& catalog,
                                              std::span<const Household> probe_households);

 private:
  double wtp_multiplier_;
};

/// One catalog's choices for a fixed set of households, evaluated at many
/// willingness-to-pay multipliers (the calibration's bisection). Every
/// term of ChoiceModel::utility() that does not depend on the multiplier
/// (log-capacity value, penalties, perceived price, budget) is computed
/// once at construction; each evaluation is then a multiply-subtract
/// argmax over flat arrays. Only the log-capacity term is stored per
/// (plan, household); the budget test runs inside the argmax. Picks are
/// those of ChoiceModel{m}.choose().
class ChoiceBatch {
 public:
  /// `catalog` must be non-empty.
  ChoiceBatch(const PlanCatalog& catalog, std::span<const Household> households);

  /// Index into catalog.plans() of each household's pick under
  /// ChoiceModel{multiplier}. Valid until the next call.
  [[nodiscard]] std::span<const std::uint32_t> choose(double multiplier);

  /// stats::median of the picks' download capacities (Mbps).
  [[nodiscard]] double median_choice(double multiplier);

 private:
  std::size_t n_households_;
  std::uint32_t cheapest_{0};
  std::vector<PlanTerms> terms_;            // per plan
  std::vector<double> price_;               // per plan, dollars
  std::vector<double> capacity_;            // per plan, Mbps
  std::vector<std::uint32_t> by_capacity_;  // non-NaN plans, ascending capacity
  std::vector<double> perceived_;           // per plan, marked-up dollars
  std::vector<double> need_;                // per household, clamped
  std::vector<double> value_scale_;         // per household
  std::vector<double> budget_;              // per household, dollars
  // Per (plan, household), plan-major: the log-capacity value term.
  std::vector<double> log_capacity_;
  // Scratch reused by every evaluation.
  std::vector<double> weight_;
  std::vector<double> best_utility_;
  std::vector<double> best_price_;
  std::vector<std::uint32_t> pick_;
  std::vector<std::uint32_t> counts_;
  std::vector<double> chosen_;
};

/// Draw a household from a country's income and need distributions.
/// `need_scale` shifts the whole need distribution (used by the
/// longitudinal model to grow needs year over year).
[[nodiscard]] Household sample_household(const CountryProfile& country, Rng& rng,
                                         double need_scale = 1.0);

}  // namespace bblab::market
