// Retail broadband service plans.
//
// Mirrors one row of the Google "Policy by the Numbers" international
// pricing survey the paper uses: download/upload speeds, monthly price,
// optional traffic cap, plus the access-technology attributes the paper
// mentions as confounders of the price-capacity relationship (§6:
// wireless plans and dedicated lines weaken the correlation).
#pragma once

#include <optional>
#include <string>

#include "core/units.h"

namespace bblab::market {

enum class AccessTech { kDsl, kCable, kFiber, kFixedWireless, kSatellite };

[[nodiscard]] std::string tech_label(AccessTech tech);

struct ServicePlan {
  std::string isp;
  std::string country_code;         ///< ISO-3166 alpha-2
  Rate download;
  Rate upload;
  MoneyPpp monthly_price;           ///< already PPP-normalized
  std::optional<Bytes> monthly_cap; ///< nullopt = unmetered
  AccessTech tech{AccessTech::kDsl};
  bool dedicated{false};            ///< non-shared line (Afghanistan case, §6)

  [[nodiscard]] std::string to_string() const;
};

}  // namespace bblab::market
