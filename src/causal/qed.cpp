#include "causal/qed.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats/binomial.h"
#include "stats/quantile.h"

namespace bblab::causal {

double sign_test_p(std::uint64_t wins, std::uint64_t trials) {
  if (trials == 0) return 1.0;
  const std::uint64_t k = std::max(wins, trials - wins);
  // Two-sided: both tails at distance |wins - n/2| from the center.
  const double upper = stats::binomial_p_greater(k, trials, 0.5);
  const double lower = stats::binomial_p_less(trials - k, trials, 0.5);
  return std::min(1.0, upper + lower);
}

std::string QedResult::to_string() const {
  std::array<char, 256> buf{};
  std::snprintf(buf.data(), buf.size(),
                "%s: %zu pairs, net score %+.3f (sign p=%.3g)%s, ATE %+.4g "
                "[%.4g, %.4g], median effect %+.4g",
                name.c_str(), pairs, net_score, sign_p_value,
                significant ? "" : " [ns]", ate, ate_ci_lo, ate_ci_hi, median_effect);
  return std::string{buf.data()};
}

QedResult QuasiExperiment::run(const std::string& name, const UnitTable& treated,
                               const UnitTable& control) const {
  QedResult result;
  result.name = name;

  const CaliperMatcher matcher{options_.matcher};
  const auto pairs = matcher.match(treated, control);
  result.pairs = pairs.size();
  if (pairs.empty()) return result;

  std::vector<double> diffs;
  diffs.reserve(pairs.size());
  std::uint64_t wins = 0;
  std::uint64_t losses = 0;
  for (const auto& p : pairs) {
    const double d = treated.outcome(p.treated_index) - control.outcome(p.control_index);
    diffs.push_back(d);
    if (d > 0) ++wins;
    if (d < 0) ++losses;
  }

  result.net_score = (static_cast<double>(wins) - static_cast<double>(losses)) /
                     static_cast<double>(pairs.size());
  result.sign_p_value = sign_test_p(wins, wins + losses);
  result.significant = result.sign_p_value < options_.alpha;

  double sum = 0.0;
  for (const double d : diffs) sum += d;
  result.ate = sum / static_cast<double>(diffs.size());
  result.median_effect = stats::median(diffs);

  // Percentile bootstrap over the matched-pair differences.
  Rng rng{options_.seed};
  std::vector<double> resample(diffs.size());
  std::vector<double> ates;
  ates.reserve(options_.bootstrap_resamples);
  for (std::size_t r = 0; r < options_.bootstrap_resamples; ++r) {
    double total = 0.0;
    for (std::size_t i = 0; i < diffs.size(); ++i) {
      total += diffs[rng.index(diffs.size())];
    }
    ates.push_back(total / static_cast<double>(diffs.size()));
  }
  std::sort(ates.begin(), ates.end());
  result.ate_ci_lo = stats::quantile_sorted(ates, 0.025);
  result.ate_ci_hi = stats::quantile_sorted(ates, 0.975);
  return result;
}

}  // namespace bblab::causal
