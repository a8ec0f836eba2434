// Per-user analysis records.
//
// One UserRecord is the joined row the paper's analysis operates on: the
// measured characteristics of a subscriber's line (NDT), their demand
// summary (collector), and the market context (plan catalog survey). The
// latent generator state (true need, archetype) is carried along for
// validation only — experiment code must not condition on it.
#pragma once

#include <cstdint>
#include <string>

#include "behavior/archetype.h"
#include "core/time.h"
#include "core/units.h"
#include "market/country.h"
#include "measurement/usage.h"

namespace bblab::dataset {

/// The paper's coverage filter: a user's summary statistics are only
/// trusted once the instrument observed enough of their traffic. Users
/// below the floor are dropped from analyses (and counted, not erased —
/// the scorecard surfaces how many were excluded).
struct CoverageRule {
  std::size_t min_samples{2};
  double min_days{0.0};  ///< minimum observed time, in days of samples

  [[nodiscard]] bool admits(const measurement::UsageSummary& usage,
                            double bin_s) const {
    return usage.samples >= min_samples &&
           static_cast<double>(usage.samples) * bin_s >= min_days * kDay;
  }
};

enum class Source { kDasu, kFcc };

[[nodiscard]] inline std::string source_label(Source s) {
  return s == Source::kDasu ? "dasu" : "fcc";
}

struct UserRecord {
  std::uint64_t user_id{0};
  Source source{Source::kDasu};
  std::string country_code;
  market::Region region{market::Region::kEurope};
  int year{2011};

  // Measured line characteristics (NDT-style probes).
  Rate capacity;        ///< max measured download capacity
  Rate upload_capacity;
  Millis rtt_ms{0.0};
  LossRate loss{0.0};

  // Market context (from the plan survey).
  MoneyPpp access_price;       ///< country's cheapest >=1 Mbps plan
  double upgrade_cost_per_mbps{0.0};  ///< country's $/Mbps regression slope
  MoneyPpp plan_price;         ///< this user's plan
  Rate plan_capacity;          ///< advertised capacity of that plan
  Bytes monthly_cap{0};        ///< plan's data cap in bytes; 0 = unmetered
  double gdp_per_capita_ppp{0.0};

  // Demand.
  measurement::UsageSummary usage;

  // Generator-internal ground truth (validation only).
  double true_need_mbps{0.0};
  behavior::Archetype archetype{behavior::Archetype::kBrowser};
  bool bt_user{false};

  /// Peak (p95) downlink utilization of the measured capacity.
  [[nodiscard]] double peak_utilization() const {
    return capacity.bps() > 0 ? usage.peak_down.bps() / capacity.bps() : 0.0;
  }
  [[nodiscard]] double peak_utilization_no_bt() const {
    return capacity.bps() > 0 ? usage.peak_down_no_bt.bps() / capacity.bps() : 0.0;
  }
  [[nodiscard]] bool capped() const { return monthly_cap > 0; }

  /// Field-wise equality (IEEE semantics: a NaN upgrade_cost_per_mbps
  /// never compares equal; use store::content_hash for bit-level checks).
  friend bool operator==(const UserRecord&, const UserRecord&) = default;
};

/// A user observed on two services: the before/after pair behind the
/// upgrade experiments (Table 1, Fig. 4, Fig. 5).
struct UpgradeObservation {
  std::uint64_t user_id{0};
  std::string country_code;
  int year{2011};

  Rate old_capacity;
  Rate new_capacity;
  MoneyPpp old_price;
  MoneyPpp new_price;

  measurement::UsageSummary before;
  measurement::UsageSummary after;

  [[nodiscard]] bool is_upgrade() const { return new_capacity > old_capacity; }

  friend bool operator==(const UpgradeObservation&, const UpgradeObservation&) = default;
};

}  // namespace bblab::dataset
