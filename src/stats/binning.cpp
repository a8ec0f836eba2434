#include "stats/binning.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "core/error.h"

namespace bblab::stats {

namespace {
constexpr double kAnchorBps = 100e3;  // 100 kbps
}

int CapacityBins::bin_of(Rate capacity) {
  const double ratio = capacity.bps() / kAnchorBps;
  if (ratio <= 1.0) return 0;
  // Smallest k with ratio <= 2^k  =>  k = ceil(log2(ratio)).
  const int k = static_cast<int>(std::ceil(std::log2(ratio) - 1e-12));
  return std::max(k, 1);
}

Rate CapacityBins::upper_edge(int k) {
  require(k >= 0, "CapacityBins: bin index must be non-negative");
  return Rate::from_bps(kAnchorBps * std::pow(2.0, k));
}

Rate CapacityBins::lower_edge(int k) {
  require(k >= 1, "CapacityBins: lower edge defined for k >= 1");
  return Rate::from_bps(kAnchorBps * std::pow(2.0, k - 1));
}

Rate CapacityBins::midpoint(int k) {
  if (k == 0) return Rate::from_bps(kAnchorBps / 2.0);
  return Rate::from_bps(kAnchorBps * std::pow(2.0, k - 0.5));
}

std::string CapacityBins::label(int k) {
  std::array<char, 64> buf{};
  if (k == 0) {
    std::snprintf(buf.data(), buf.size(), "(0, 0.1]");
  } else {
    std::snprintf(buf.data(), buf.size(), "(%.4g, %.4g]", lower_edge(k).mbps(),
                  upper_edge(k).mbps());
  }
  return std::string{buf.data()};
}

ServiceTier tier_of(Rate capacity) {
  const double mbps = capacity.mbps();
  if (mbps < 1.0) return ServiceTier::kBelow1;
  if (mbps < 8.0) return ServiceTier::k1to8;
  if (mbps < 16.0) return ServiceTier::k8to16;
  if (mbps < 32.0) return ServiceTier::k16to32;
  return ServiceTier::kAbove32;
}

std::string tier_label(ServiceTier tier) {
  switch (tier) {
    case ServiceTier::kBelow1: return "<1 Mbps";
    case ServiceTier::k1to8: return "1-8 Mbps";
    case ServiceTier::k8to16: return "8-16 Mbps";
    case ServiceTier::k16to32: return "16-32 Mbps";
    case ServiceTier::kAbove32: return ">32 Mbps";
  }
  return "?";
}

std::span<const ServiceTier> all_tiers() {
  static constexpr std::array<ServiceTier, 5> kTiers{
      ServiceTier::kBelow1, ServiceTier::k1to8, ServiceTier::k8to16,
      ServiceTier::k16to32, ServiceTier::kAbove32};
  return kTiers;
}

EdgeBins::EdgeBins(std::vector<double> edges) : edges_{std::move(edges)} {
  require(edges_.size() >= 2, "EdgeBins: need at least two edges");
  require(std::is_sorted(edges_.begin(), edges_.end()),
          "EdgeBins: edges must be ascending");
}

std::optional<std::size_t> EdgeBins::bin_of(double x) const {
  if (!(x > edges_.front()) || x > edges_.back()) return std::nullopt;  // NaN too
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), x);
  return static_cast<std::size_t>(it - edges_.begin()) - 1;
}

std::string EdgeBins::label(std::size_t i) const {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "(%.4g, %.4g]", lower(i), upper(i));
  return std::string{buf.data()};
}

}  // namespace bblab::stats
