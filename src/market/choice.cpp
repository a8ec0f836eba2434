#include "market/choice.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/error.h"
#include "stats/quantile.h"

namespace bblab::market {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The utility formula, split at the willingness-to-pay multiplier so
// ChoiceBatch can hoist everything that does not depend on it. utility()
// and the batch kernel both go through these helpers; the operation
// order, ((m * value_scale) * need) * log1p(c / need) and then the
// penalties in turn, is what makes the two bit-identical.
double clamped_need(double need_mbps) { return std::max(need_mbps, 0.1); }

double value_weight(double multiplier, double value_scale, double need) {
  return multiplier * value_scale * need;
}

// Saturating value: marginal value of an extra Mbps halves at c == need
// and keeps shrinking — the "law of diminishing returns" in preferences.
double log_capacity(Rate capacity, double need) {
  return std::log1p(capacity.mbps() / need);
}

double perceived_price(const ServicePlan& plan, const PlanTerms& t) {
  return plan.monthly_price.dollars() * t.price_markup;
}

double net_utility(double weight, double log_cap, const PlanTerms& t, double perceived) {
  double value = weight * log_cap;
  value *= t.wireless_value;
  value *= t.capped_value;
  value *= t.dedicated_value;
  return value - perceived;
}

// The argmax preference: higher utility, then a strictly lower price, else
// the plan seen first. Starting from (-inf, +inf), over-budget plans tie
// their way to the cheapest one, which is also the nothing-affordable
// fallback; any affordable plan then beats them.
bool preferred(double u, double price, double best_u, double best_price) {
  return u > best_u || (u == best_u && price < best_price);
}

}  // namespace

PlanTerms PlanTerms::of(const ServicePlan& plan) {
  PlanTerms t;
  if (plan.tech == AccessTech::kFixedWireless || plan.tech == AccessTech::kSatellite) {
    t.wireless_value = 0.55;
    t.price_markup = 1.35;
  }
  if (plan.monthly_cap.has_value()) t.capped_value = 0.8;
  if (plan.dedicated) t.dedicated_value = 0.9;
  return t;
}

double ChoiceModel::capacity_value(const Household& household, Rate capacity) const {
  const double need = clamped_need(household.need_mbps);
  return value_weight(wtp_multiplier_, household.value_scale, need) *
         log_capacity(capacity, need);
}

double ChoiceModel::utility(const Household& household, const ServicePlan& plan) const {
  if (plan.monthly_price > household.budget) return -kInf;
  const PlanTerms t = PlanTerms::of(plan);
  const double need = clamped_need(household.need_mbps);
  return net_utility(value_weight(wtp_multiplier_, household.value_scale, need),
                     log_capacity(plan.download, need), t, perceived_price(plan, t));
}

std::optional<ServicePlan> ChoiceModel::choose(const Household& household,
                                               const PlanCatalog& catalog) const {
  if (catalog.empty()) return std::nullopt;

  const ServicePlan* best = nullptr;
  double best_utility = -kInf;
  double best_price = kInf;
  const ServicePlan* cheapest = nullptr;
  for (const auto& plan : catalog.plans()) {
    if (cheapest == nullptr || plan.monthly_price < cheapest->monthly_price) {
      cheapest = &plan;
    }
    const double u = utility(household, plan);
    if (preferred(u, plan.monthly_price.dollars(), best_utility, best_price)) {
      best = &plan;
      best_utility = u;
      best_price = plan.monthly_price.dollars();
    }
  }
  if (best == nullptr || best_utility == -kInf) {
    return *cheapest;  // nothing affordable: take the entry-level plan
  }
  return *best;
}

ChoiceBatch::ChoiceBatch(const PlanCatalog& catalog, std::span<const Household> households)
    : n_households_{households.size()} {
  require(!catalog.empty(), "ChoiceBatch: empty catalog");
  const auto& plans = catalog.plans();
  const std::size_t n_plans = plans.size();
  terms_.reserve(n_plans);
  price_.reserve(n_plans);
  capacity_.reserve(n_plans);
  for (std::uint32_t p = 0; p < n_plans; ++p) {
    if (plans[p].monthly_price < plans[cheapest_].monthly_price) cheapest_ = p;
    terms_.push_back(PlanTerms::of(plans[p]));
    price_.push_back(plans[p].monthly_price.dollars());
    capacity_.push_back(plans[p].download.mbps());
    if (!std::isnan(capacity_.back())) by_capacity_.push_back(p);
  }
  std::stable_sort(by_capacity_.begin(), by_capacity_.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return capacity_[a] < capacity_[b]; });

  need_.reserve(n_households_);
  value_scale_.reserve(n_households_);
  for (const auto& h : households) {
    need_.push_back(clamped_need(h.need_mbps));
    value_scale_.push_back(h.value_scale);
  }
  log_capacity_.resize(n_plans * n_households_);
  perceived_.resize(n_plans * n_households_);
  for (std::size_t p = 0; p < n_plans; ++p) {
    const auto& plan = plans[p];
    const double perceived = perceived_price(plan, terms_[p]);
    for (std::size_t h = 0; h < n_households_; ++h) {
      log_capacity_[p * n_households_ + h] = log_capacity(plan.download, need_[h]);
      // finite - inf == -inf: utility()'s over-budget value, with no branch.
      perceived_[p * n_households_ + h] =
          plan.monthly_price > households[h].budget ? kInf : perceived;
    }
  }
  weight_.resize(n_households_);
  best_utility_.resize(n_households_);
  best_price_.resize(n_households_);
  pick_.resize(n_households_);
  counts_.resize(n_plans);
  chosen_.reserve(n_households_);
}

std::span<const std::uint32_t> ChoiceBatch::choose(double multiplier) {
  const std::size_t n = n_households_;
  for (std::size_t h = 0; h < n; ++h) {
    weight_[h] = value_weight(multiplier, value_scale_[h], need_[h]);
    best_utility_[h] = -kInf;
    best_price_[h] = kInf;
    pick_[h] = cheapest_;
  }
  for (std::uint32_t p = 0; p < terms_.size(); ++p) {
    const PlanTerms& t = terms_[p];
    const double price = price_[p];
    const double* log_cap = &log_capacity_[p * n];
    const double* perceived = &perceived_[p * n];
    for (std::size_t h = 0; h < n; ++h) {
      const double u = net_utility(weight_[h], log_cap[h], t, perceived[h]);
      if (preferred(u, price, best_utility_[h], best_price_[h])) {
        best_utility_[h] = u;
        best_price_[h] = price;
        pick_[h] = p;
      }
    }
  }
  for (std::size_t h = 0; h < n; ++h) {
    // Nothing affordable: choose()'s entry-level fallback.
    if (best_utility_[h] == -kInf) pick_[h] = cheapest_;
  }
  return pick_;
}

double ChoiceBatch::median_choice(double multiplier) {
  std::fill(counts_.begin(), counts_.end(), 0U);
  for (const std::uint32_t p : choose(multiplier)) ++counts_[p];
  // The picks' capacities in ascending order, without sorting them:
  // expand the per-plan counts over the capacity-sorted plan order.
  chosen_.clear();
  for (const std::uint32_t p : by_capacity_) chosen_.insert(chosen_.end(), counts_[p], capacity_[p]);
  // stats::median's lenient contract: NaNs dropped, empty -> 0.
  return chosen_.empty() ? 0.0 : stats::quantile_sorted(chosen_, 0.5);
}

ChoiceModel ChoiceModel::calibrated(const CountryProfile& country,
                                    const PlanCatalog& catalog,
                                    std::span<const Household> probe_households) {
  require(!catalog.empty(), "ChoiceModel::calibrated: empty catalog");
  require(!probe_households.empty(), "ChoiceModel::calibrated: no probe households");
  ChoiceBatch probes{catalog, probe_households};

  // Median chosen capacity is monotone non-decreasing in the multiplier;
  // bisect in log space to land near the market's typical capacity.
  const double target = country.typical_capacity.mbps();
  double lo = 1e-3;
  double hi = 1e4;
  for (int iter = 0; iter < 48; ++iter) {
    const double mid = std::sqrt(lo * hi);
    if (probes.median_choice(mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return ChoiceModel{std::sqrt(lo * hi)};
}

Household sample_household(const CountryProfile& country, Rng& rng, double need_scale) {
  Household h;
  // Needs are global, not market-local: the applications households want
  // (video, downloads, calls) are the same everywhere — that is the
  // paper's core distinction between need and what a market lets people
  // afford. A mild income factor captures device/household-size effects.
  // What differs across markets is what that need can BUY.
  const double income_factor =
      std::clamp(std::pow(country.gdp_per_capita_ppp / 30000.0, 0.25), 0.55, 1.5);
  const double need_median = 6.5 * income_factor;
  h.need_mbps = need_scale * rng.lognormal(std::log(need_median), 0.80);

  // Budget: subscribers, by definition, can pay for service in their
  // market. The median budget is the larger of a baseline income share
  // (4% of monthly GDP per capita) and ~1.35x the price of the market's
  // typical tier — in Botswana the paper's subscribers spend 8% of their
  // income where an American spends 1.3%, because the people who are
  // online in an expensive market are exactly those willing and able to
  // stretch for it.
  const double monthly_income = country.gdp_per_capita_ppp / 12.0;
  const double typ = country.typical_capacity.mbps();
  const double typical_plan_price =
      typ >= 1.0 ? country.access_price.dollars() +
                       country.upgrade_cost_per_mbps * (typ - 1.0)
                 : country.access_price.dollars() * (0.55 + 0.45 * typ);
  const double budget_median =
      std::max(0.04 * monthly_income, 1.35 * typical_plan_price);
  h.budget = MoneyPpp::usd(std::max(5.0, rng.lognormal(std::log(budget_median), 0.4)));

  // Willingness to pay scales with budget: richer households price their
  // time (and entertainment) higher.
  h.value_scale = 0.6 * h.budget.dollars();
  return h;
}

}  // namespace bblab::market
