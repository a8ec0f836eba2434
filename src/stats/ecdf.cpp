#include "stats/ecdf.h"

#include <algorithm>
#include <array>
#include <cstdio>

#include "core/error.h"
#include "stats/quantile.h"

namespace bblab::stats {

Ecdf::Ecdf(std::span<const double> sample) {
  SortedColumn column{sample};
  dropped_ = column.dropped();
  sorted_ = std::move(column).take();
}

Ecdf::Ecdf(SortedColumn&& column)
    : sorted_{std::move(column).take()} {}

double Ecdf::operator()(double x) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

void Ecdf::evaluate_sorted(std::span<const double> sorted_queries,
                           std::span<double> out) const {
  ecdf_eval_sorted(sorted_, sorted_queries, out);
}

double Ecdf::inverse(double q) const { return quantile_sorted(sorted_, q); }

double Ecdf::min() const {
  if (sorted_.empty()) throw EmptyColumn{"Ecdf::min on empty ECDF"};
  return sorted_.front();
}

double Ecdf::max() const {
  if (sorted_.empty()) throw EmptyColumn{"Ecdf::max on empty ECDF"};
  return sorted_.back();
}

std::vector<Ecdf::Point> Ecdf::points() const {
  std::vector<Point> out;
  out.reserve(sorted_.size());
  const auto n = static_cast<double>(sorted_.size());
  for (std::size_t i = 0; i < sorted_.size(); ++i) {
    out.push_back({sorted_[i], static_cast<double>(i + 1) / n});
  }
  return out;
}

std::vector<Ecdf::Point> Ecdf::sampled(std::size_t resolution) const {
  require(resolution >= 2, "Ecdf::sampled needs resolution >= 2");
  std::vector<Point> out;
  if (sorted_.empty()) return out;
  std::vector<double> qs;
  qs.reserve(resolution);
  for (std::size_t i = 0; i < resolution; ++i) {
    qs.push_back(static_cast<double>(i) / static_cast<double>(resolution - 1));
  }
  const auto values = quantiles_sorted(sorted_, qs);
  out.reserve(resolution);
  for (std::size_t i = 0; i < resolution; ++i) out.push_back({values[i], qs[i]});
  return out;
}

std::string Ecdf::summary() const {
  if (sorted_.empty()) return "(empty)";
  static constexpr std::array<double, 7> kQs{0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95};
  const auto values = quantiles_sorted(sorted_, kQs);
  std::string s;
  std::array<char, 64> buf{};
  for (std::size_t i = 0; i < kQs.size(); ++i) {
    std::snprintf(buf.data(), buf.size(), "p%02d=%.4g ",
                  static_cast<int>(kQs[i] * 100), values[i]);
    s += buf.data();
  }
  if (!s.empty()) s.pop_back();
  return s;
}

}  // namespace bblab::stats
