// Propensity-score matching.
//
// The observational-inference literature's other standard tool: fit a
// logistic model of treatment assignment on the covariates, then match
// each treated unit to the control with the nearest propensity score
// (within a score caliper). Compared to the paper's per-covariate
// calipers, propensity matching trades exact covariate agreement for much
// larger matched samples — bench/abl_estimators quantifies the trade on
// this repository's data.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "causal/matching.h"

namespace bblab::causal {

/// L2-regularized logistic regression fit by gradient descent on
/// standardized covariates. Small and dependency-free; adequate for the
/// handful of covariates these designs use.
class LogisticModel {
 public:
  struct FitOptions {
    int iterations{500};
    double learning_rate{0.5};
    double l2{1e-4};
  };

  /// Fit P(treated | x) on two non-empty groups of units with equal
  /// covariate dimension. (No default argument: a nested class with member
  /// initializers cannot default-construct inside its enclosing class
  /// definition — pass `FitOptions{}`.)
  static LogisticModel fit(const UnitTable& treated, const UnitTable& control,
                           FitOptions options);

  /// Predicted probability of treatment for one covariate vector.
  [[nodiscard]] double predict(std::span<const double> covariates) const;

  [[nodiscard]] const std::vector<double>& weights() const { return weights_; }
  [[nodiscard]] double intercept() const { return intercept_; }

 private:
  // Standardization parameters (fit-time mean/std per covariate).
  std::vector<double> mean_;
  std::vector<double> stddev_;
  std::vector<double> weights_;
  double intercept_{0.0};
};

struct PropensityOptions {
  /// Maximum |score difference| for a valid match.
  double score_caliper{0.05};
  LogisticModel::FitOptions fit{};
};

struct PropensityMatchResult {
  std::vector<MatchedPair> pairs;      ///< distance = |score difference|
  std::vector<double> treated_scores;  ///< per input unit
  std::vector<double> control_scores;
};

/// Greedy nearest-score one-to-one matching.
[[nodiscard]] PropensityMatchResult propensity_match(const UnitTable& treated,
                                                     const UnitTable& control,
                                                     PropensityOptions options = {});

}  // namespace bblab::causal
