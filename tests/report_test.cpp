#include "analysis/report.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

namespace bblab::analysis {
namespace {

TEST(Report, Banner) {
  std::ostringstream os;
  print_banner(os, "Figure 2 — usage vs capacity");
  EXPECT_NE(os.str().find("== Figure 2"), std::string::npos);
}

TEST(Report, SeriesListsEveryPoint) {
  BinSeries series;
  series.r = 0.91;
  for (int i = 0; i < 3; ++i) {
    BinPoint p;
    p.bin = i + 1;
    p.capacity_mbps = 0.2 * (1 << i);
    p.usage_mbps.mean = 0.05 * (i + 1);
    p.usage_mbps.half_width = 0.01;
    p.users = 100;
    series.points.push_back(p);
  }
  std::ostringstream os;
  print_series(os, "panel (a)", series);
  const auto s = os.str();
  EXPECT_NE(s.find("panel (a)"), std::string::npos);
  EXPECT_NE(s.find("r=0.91"), std::string::npos);
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);  // header + 3 points
}

TEST(Report, EcdfSummary) {
  const stats::Ecdf e{std::vector<double>{1, 2, 3, 4, 5}};
  std::ostringstream os;
  print_ecdf(os, "capacity", e, "Mbps");
  const auto s = os.str();
  EXPECT_NE(s.find("n=5"), std::string::npos);
  EXPECT_NE(s.find("p50=3"), std::string::npos);
}

TEST(Report, PercentFormatting) {
  EXPECT_EQ(pct(0.668), "66.8%");
  EXPECT_EQ(pct(0.5, 0), "50%");
  EXPECT_EQ(pct(1.0, 2), "100.00%");
}

TEST(Report, NumberFormatting) {
  EXPECT_EQ(num(7.4), "7.4");
  EXPECT_EQ(num(1.94e-25), "1.94e-25");
  EXPECT_EQ(num(0.123456, 2), "0.12");
}

}  // namespace
}  // namespace bblab::analysis
