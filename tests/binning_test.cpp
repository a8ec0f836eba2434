#include "stats/binning.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/error.h"

namespace bblab::stats {
namespace {

TEST(CapacityBins, PaperExamples) {
  // (0.1, 0.2] is bin 1; (0.2, 0.4] bin 2; ... (51.2, 102.4] bin 10.
  EXPECT_EQ(CapacityBins::bin_of(Rate::from_kbps(150)), 1);
  EXPECT_EQ(CapacityBins::bin_of(Rate::from_kbps(200)), 1);  // inclusive top
  EXPECT_EQ(CapacityBins::bin_of(Rate::from_kbps(201)), 2);
  EXPECT_EQ(CapacityBins::bin_of(Rate::from_mbps(1.0)), 4);  // (0.8, 1.6]
}

TEST(CapacityBins, EdgesAreConsistent) {
  for (int k = 1; k <= 12; ++k) {
    EXPECT_DOUBLE_EQ(CapacityBins::lower_edge(k).bps(),
                     CapacityBins::upper_edge(k - 1).bps());
    EXPECT_DOUBLE_EQ(CapacityBins::upper_edge(k).bps(),
                     2.0 * CapacityBins::lower_edge(k).bps());
    // Midpoint lies strictly inside the bin.
    EXPECT_GT(CapacityBins::midpoint(k).bps(), CapacityBins::lower_edge(k).bps());
    EXPECT_LT(CapacityBins::midpoint(k).bps(), CapacityBins::upper_edge(k).bps());
  }
}

TEST(CapacityBins, BinOfRoundTripsEdges) {
  for (int k = 1; k <= 12; ++k) {
    EXPECT_EQ(CapacityBins::bin_of(CapacityBins::upper_edge(k)), k);
    EXPECT_EQ(CapacityBins::bin_of(CapacityBins::midpoint(k)), k);
    // Just above the lower edge belongs to bin k.
    EXPECT_EQ(CapacityBins::bin_of(CapacityBins::lower_edge(k) * 1.0001), k);
  }
}

TEST(CapacityBins, TinyCapacitiesAreBinZero) {
  EXPECT_EQ(CapacityBins::bin_of(Rate::from_kbps(50)), 0);
  EXPECT_EQ(CapacityBins::bin_of(Rate::from_kbps(100)), 0);
}

TEST(CapacityBins, Labels) {
  EXPECT_EQ(CapacityBins::label(4), "(0.8, 1.6]");
  EXPECT_EQ(CapacityBins::label(10), "(51.2, 102.4]");
  EXPECT_EQ(CapacityBins::label(0), "(0, 0.1]");
}

TEST(ServiceTiers, PaperTierBoundaries) {
  EXPECT_EQ(tier_of(Rate::from_kbps(512)), ServiceTier::kBelow1);
  EXPECT_EQ(tier_of(Rate::from_mbps(1)), ServiceTier::k1to8);
  EXPECT_EQ(tier_of(Rate::from_mbps(7.9)), ServiceTier::k1to8);
  EXPECT_EQ(tier_of(Rate::from_mbps(8)), ServiceTier::k8to16);
  EXPECT_EQ(tier_of(Rate::from_mbps(16)), ServiceTier::k16to32);
  EXPECT_EQ(tier_of(Rate::from_mbps(32)), ServiceTier::kAbove32);
  EXPECT_EQ(tier_of(Rate::from_mbps(100)), ServiceTier::kAbove32);
}

TEST(ServiceTiers, LabelsAndEnumeration) {
  EXPECT_EQ(all_tiers().size(), 5u);
  EXPECT_EQ(tier_label(ServiceTier::kBelow1), "<1 Mbps");
  EXPECT_EQ(tier_label(ServiceTier::kAbove32), ">32 Mbps");
}

TEST(EdgeBins, RightClosedSemantics) {
  const EdgeBins bins{{0.0, 25.0, 60.0}};
  EXPECT_EQ(bins.count(), 2u);
  EXPECT_FALSE(bins.bin_of(0.0).has_value());   // at/below the bottom edge
  EXPECT_EQ(bins.bin_of(10.0).value(), 0u);
  EXPECT_EQ(bins.bin_of(25.0).value(), 0u);     // inclusive upper edge
  EXPECT_EQ(bins.bin_of(25.01).value(), 1u);
  EXPECT_EQ(bins.bin_of(60.0).value(), 1u);
  EXPECT_FALSE(bins.bin_of(60.01).has_value());
}

TEST(EdgeBins, NanFallsInNoBin) {
  const EdgeBins bins{{0.0, 25.0, 60.0}};
  EXPECT_FALSE(bins.bin_of(std::nan("")).has_value());
}

TEST(EdgeBins, Validation) {
  EXPECT_THROW(EdgeBins{std::vector<double>{1.0}}, InvalidArgument);
  EXPECT_THROW(EdgeBins(std::vector<double>{2.0, 1.0}), InvalidArgument);
}

TEST(EdgeBins, LabelsAndAccessors) {
  const EdgeBins bins{{0.5, 1.0, 4.0}};
  EXPECT_DOUBLE_EQ(bins.lower(1), 1.0);
  EXPECT_DOUBLE_EQ(bins.upper(1), 4.0);
  EXPECT_EQ(bins.label(0), "(0.5, 1]");
}

}  // namespace
}  // namespace bblab::stats
