// Capacity and covariate binning.
//
// The paper's grouping scheme for capacities is exponential: class k holds
// users whose download capacity falls in (100 kbps * 2^(k-1), 100 kbps * 2^k]
// (§3.1). Section 5's country case study instead uses named service tiers
// (<1, 1-8, 8-16, 16-32, >32 Mbps). Both binning schemes live here, plus a
// generic edge-based binner for price/latency/loss groups.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/units.h"

namespace bblab::stats {

/// The paper's doubling capacity classes anchored at 100 kbps.
class CapacityBins {
 public:
  /// Bin index k >= 1 such that capacity is in (100kbps*2^(k-1), 100kbps*2^k].
  /// Capacities at or below 100 kbps map to bin 0.
  [[nodiscard]] static int bin_of(Rate capacity);

  /// Inclusive upper edge of bin k.
  [[nodiscard]] static Rate upper_edge(int k);
  /// Exclusive lower edge of bin k.
  [[nodiscard]] static Rate lower_edge(int k);
  /// Geometric midpoint, used as the bin's x-coordinate in figures.
  [[nodiscard]] static Rate midpoint(int k);

  /// "(0.8, 1.6]" style label in Mbps.
  [[nodiscard]] static std::string label(int k);
};

/// Named service tiers from the §5 cross-country comparison.
enum class ServiceTier { kBelow1, k1to8, k8to16, k16to32, kAbove32 };

[[nodiscard]] ServiceTier tier_of(Rate capacity);
[[nodiscard]] std::string tier_label(ServiceTier tier);
[[nodiscard]] std::span<const ServiceTier> all_tiers();

/// Generic right-closed binner over ascending edges:
/// bin i covers (edges[i], edges[i+1]]. Values <= edges[0] or > edges.back(),
/// and NaN, return nullopt.
class EdgeBins {
 public:
  explicit EdgeBins(std::vector<double> edges);

  [[nodiscard]] std::optional<std::size_t> bin_of(double x) const;
  [[nodiscard]] std::size_t count() const { return edges_.size() - 1; }
  [[nodiscard]] double lower(std::size_t i) const { return edges_.at(i); }
  [[nodiscard]] double upper(std::size_t i) const { return edges_.at(i + 1); }
  [[nodiscard]] std::string label(std::size_t i) const;

 private:
  std::vector<double> edges_;
};

}  // namespace bblab::stats
