#include "causal/propensity.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/error.h"

namespace bblab::causal {

namespace {

double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

}  // namespace

LogisticModel LogisticModel::fit(const UnitTable& treated, const UnitTable& control,
                                 FitOptions options) {
  require(!treated.empty() && !control.empty(),
          "LogisticModel::fit: both groups must be non-empty");
  require(treated.dim() == control.dim(),
          "LogisticModel::fit: groups differ in covariate dimension");
  const std::size_t k = treated.dim();

  LogisticModel model;
  model.mean_.assign(k, 0.0);
  model.stddev_.assign(k, 1.0);
  model.weights_.assign(k, 0.0);

  // Standardize over the pooled sample.
  const auto n = static_cast<double>(treated.size() + control.size());
  for (std::size_t j = 0; j < k; ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < treated.size(); ++i) sum += treated.covariates(i)[j];
    for (std::size_t i = 0; i < control.size(); ++i) sum += control.covariates(i)[j];
    model.mean_[j] = sum / n;
    double ss = 0.0;
    for (const auto* group : {&treated, &control}) {
      for (std::size_t i = 0; i < group->size(); ++i) {
        const double d = group->covariates(i)[j] - model.mean_[j];
        ss += d * d;
      }
    }
    model.stddev_[j] = std::max(1e-9, std::sqrt(ss / n));
  }

  const auto standardized = [&](std::span<const double> x, std::size_t j) {
    return (x[j] - model.mean_[j]) / model.stddev_[j];
  };

  // Batch gradient descent on the regularized log-loss.
  std::vector<double> grad(k, 0.0);
  for (int it = 0; it < options.iterations; ++it) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double grad0 = 0.0;
    for (const auto& [group, label] : {std::pair{&treated, 1.0}, std::pair{&control, 0.0}}) {
      for (std::size_t i = 0; i < group->size(); ++i) {
        const auto x = group->covariates(i);
        double z = model.intercept_;
        for (std::size_t j = 0; j < k; ++j) z += model.weights_[j] * standardized(x, j);
        const double err = sigmoid(z) - label;
        grad0 += err;
        for (std::size_t j = 0; j < k; ++j) grad[j] += err * standardized(x, j);
      }
    }
    model.intercept_ -= options.learning_rate * grad0 / n;
    for (std::size_t j = 0; j < k; ++j) {
      model.weights_[j] -= options.learning_rate *
                           (grad[j] / n + options.l2 * model.weights_[j]);
    }
  }
  return model;
}

double LogisticModel::predict(std::span<const double> covariates) const {
  require(covariates.size() == weights_.size(),
          "LogisticModel::predict: covariate dimension mismatch");
  double z = intercept_;
  for (std::size_t j = 0; j < weights_.size(); ++j) {
    z += weights_[j] * (covariates[j] - mean_[j]) / stddev_[j];
  }
  return sigmoid(z);
}

PropensityMatchResult propensity_match(const UnitTable& treated,
                                       const UnitTable& control,
                                       PropensityOptions options) {
  PropensityMatchResult result;
  if (treated.empty() || control.empty()) return result;

  const auto model = LogisticModel::fit(treated, control, options.fit);
  result.treated_scores.reserve(treated.size());
  result.control_scores.reserve(control.size());
  for (std::size_t i = 0; i < treated.size(); ++i) {
    result.treated_scores.push_back(model.predict(treated.covariates(i)));
  }
  for (std::size_t i = 0; i < control.size(); ++i) {
    result.control_scores.push_back(model.predict(control.covariates(i)));
  }

  // Greedy nearest-score matching without replacement.
  struct Candidate {
    double gap;
    std::size_t t;
    std::size_t c;
  };
  std::vector<Candidate> feasible;
  for (std::size_t t = 0; t < treated.size(); ++t) {
    for (std::size_t c = 0; c < control.size(); ++c) {
      const double gap = std::fabs(result.treated_scores[t] - result.control_scores[c]);
      if (gap <= options.score_caliper) feasible.push_back({gap, t, c});
    }
  }
  std::sort(feasible.begin(), feasible.end(), [](const Candidate& a, const Candidate& b) {
    if (a.gap != b.gap) return a.gap < b.gap;
    if (a.t != b.t) return a.t < b.t;
    return a.c < b.c;
  });
  std::vector<bool> tu(treated.size(), false);
  std::vector<bool> cu(control.size(), false);
  for (const auto& cand : feasible) {
    if (tu[cand.t] || cu[cand.c]) continue;
    tu[cand.t] = true;
    cu[cand.c] = true;
    result.pairs.push_back({cand.t, cand.c, cand.gap});
  }
  return result;
}

}  // namespace bblab::causal
