#include "analysis/figures.h"
#include "analysis/render.h"
#include "analysis/scorecard.h"
#include "analysis/tables.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace bblab::analysis {
namespace {

const dataset::StudyDataset& shared_dataset() {
  static const dataset::StudyDataset ds = [] {
    dataset::StudyConfig config;
    config.seed = 11;
    config.population_scale = 0.05;
    config.window_days = 1.0;
    config.fcc_users = 150;
    config.fcc_window_days = 2.0;
    config.first_year = 2011;
    config.last_year = 2012;
    config.upgrade_follow_share = 0.3;
    return dataset::StudyGenerator{market::World::builtin(), config}.generate();
  }();
  return ds;
}

TEST(Fig1, DistributionsAreNonEmptyAndOrdered) {
  const auto fig = fig1_characteristics(shared_dataset());
  EXPECT_GT(fig.capacity_mbps.size(), 200u);
  EXPECT_GT(fig.latency_ms.inverse(0.95), fig.latency_ms.inverse(0.5));
  EXPECT_GE(fig.loss_pct.min(), 0.0);
}

TEST(Fig2, UsageGrowsWithCapacity) {
  const auto fig = fig2_capacity_vs_usage(shared_dataset());
  for (const auto* series : {&fig.mean_bt, &fig.peak_bt, &fig.mean_nobt, &fig.peak_nobt}) {
    ASSERT_GE(series->points.size(), 4u);
    // Strong positive log-log correlation (paper: r >= 0.87).
    EXPECT_GT(series->r, 0.8);
    // First-to-last bin usage must rise substantially.
    EXPECT_GT(series->points.back().usage_mbps.mean,
              series->points.front().usage_mbps.mean * 2);
  }
}

TEST(Fig2, PeakExceedsMean) {
  const auto fig = fig2_capacity_vs_usage(shared_dataset());
  for (std::size_t i = 0; i < fig.mean_nobt.points.size(); ++i) {
    const int bin = fig.mean_nobt.points[i].bin;
    for (const auto& peak_point : fig.peak_nobt.points) {
      if (peak_point.bin == bin) {
        EXPECT_GT(peak_point.usage_mbps.mean, fig.mean_nobt.points[i].usage_mbps.mean);
      }
    }
  }
}

TEST(Fig3, PeakAgreesAcrossDatasetsMoreThanMean) {
  const auto fig = fig3_fcc_vs_dasu(shared_dataset());
  ASSERT_GE(fig.mean_fcc.points.size(), 3u);
  ASSERT_GE(fig.mean_dasu_us.points.size(), 3u);
  EXPECT_GT(fig.r_mean, 0.75);
  EXPECT_GT(fig.r_peak, 0.75);
}

TEST(Fig4, FastNetworkShiftsDistributionsRight) {
  const auto fig = fig4_slow_fast_cdfs(shared_dataset());
  ASSERT_GT(fig.mean_slow.size(), 10u);
  EXPECT_GT(fig.mean_fast.inverse(0.5), fig.mean_slow.inverse(0.5));
  EXPECT_GT(fig.peak_fast.inverse(0.5), fig.peak_slow.inverse(0.5));
}

TEST(Fig5, HasCellsAndLowTierGainsArePositive) {
  const auto fig = fig5_upgrade_deltas(shared_dataset());
  EXPECT_FALSE(fig.peak_nobt.empty());
  double low_tier_change = 0.0;
  std::size_t low_tier_users = 0;
  for (const auto& cell : fig.peak_nobt) {
    if (cell.from_tier <= 1) {
      low_tier_change += cell.change_mbps.mean * static_cast<double>(cell.users);
      low_tier_users += cell.users;
    }
  }
  if (low_tier_users > 10) {
    EXPECT_GT(low_tier_change / static_cast<double>(low_tier_users), 0.0);
  }
}

TEST(Fig6, DemandPerClassIsStableAcrossYears) {
  const auto fig = fig6_longitudinal(shared_dataset());
  ASSERT_GE(fig.peak_nobt.size(), 2u);
  // The year-vs-year natural experiments should be inconclusive (§4).
  ASSERT_FALSE(fig.year_experiments.empty());
  for (const auto& e : fig.year_experiments) {
    EXPECT_LT(e.test.fraction, 0.58) << e.to_string();
  }
}

TEST(Fig7, CountriesOrderedByUtilization) {
  const auto fig =
      fig7_country_cdfs(shared_dataset(), {"BW", "SA", "US", "JP"});
  ASSERT_EQ(fig.size(), 4u);
  // Capacity medians ascend BW < SA < US < JP (paper Fig. 7a).
  EXPECT_LT(fig[0].capacity_mbps.inverse(0.5), fig[1].capacity_mbps.inverse(0.5));
  EXPECT_LT(fig[1].capacity_mbps.inverse(0.5), fig[2].capacity_mbps.inverse(0.5));
  EXPECT_LT(fig[2].capacity_mbps.inverse(0.5), fig[3].capacity_mbps.inverse(0.5));
  // Peak utilization in (approximately) reverse order (paper Fig. 7b).
  // BW and SA carry only a few dozen users at this test scale, so the
  // middle comparisons get a sampling-noise tolerance; Botswana must
  // dominate everyone outright.
  EXPECT_GT(fig[0].peak_utilization.inverse(0.5),
            fig[1].peak_utilization.inverse(0.5));
  EXPECT_GT(fig[0].peak_utilization.inverse(0.5),
            fig[2].peak_utilization.inverse(0.5));
  EXPECT_GT(fig[1].peak_utilization.inverse(0.5),
            fig[2].peak_utilization.inverse(0.5) * 0.7);
  EXPECT_GT(fig[2].peak_utilization.inverse(0.5),
            fig[3].peak_utilization.inverse(0.5) * 0.8);
}

TEST(Fig9, BotswanaOutUsesUsInLowTier) {
  const auto fig = fig9_tier_demand(shared_dataset(), {"BW", "SA", "US", "JP"});
  double bw_low = -1.0;
  double us_low = -1.0;
  for (const auto& bar : fig) {
    if (bar.country == "BW" && bar.tier == "<1 Mbps") bw_low = bar.peak_demand_mbps.mean;
    if (bar.country == "US" && bar.tier == "<1 Mbps") us_low = bar.peak_demand_mbps.mean;
  }
  if (bw_low > 0 && us_low > 0) {
    EXPECT_GT(bw_low, us_low);
  }
}

TEST(Fig10, CorrelationSharesAndAnchors) {
  const auto fig = fig10_upgrade_cost_cdf(shared_dataset());
  EXPECT_GT(fig.share_strong_corr, 0.45);
  EXPECT_GT(fig.share_moderate_corr, fig.share_strong_corr);
  ASSERT_TRUE(fig.examples.count("JP"));
  ASSERT_TRUE(fig.examples.count("US"));
  ASSERT_TRUE(fig.examples.count("GH"));
  EXPECT_LT(fig.examples.at("JP"), fig.examples.at("US"));
  EXPECT_LT(fig.examples.at("US"), fig.examples.at("GH"));
}

TEST(Fig11, IndiaLatencyDominatesOthers) {
  const auto fig = fig11_india_latency(shared_dataset());
  EXPECT_GT(fig.ndt1113_india.inverse(0.5), 2.0 * fig.ndt1113_other.inverse(0.5));
  // Nearly every Indian user above 100 ms (paper).
  EXPECT_GT(fig.ndt1113_india.inverse(0.1), 100.0);
  // The 2014 web and NDT re-measurements track the archival distribution.
  EXPECT_NEAR(fig.ndt14_india.inverse(0.5), fig.ndt1113_india.inverse(0.5),
              fig.ndt1113_india.inverse(0.5) * 0.25);
}

TEST(Fig12, IndiaLossDominates) {
  const auto fig = fig12_india_loss(shared_dataset());
  EXPECT_GT(fig.loss_pct_india.inverse(0.5), fig.loss_pct_other.inverse(0.5));
}

TEST(Tab4, CaseStudyMatchesPaperShape) {
  const auto tab = tab4_case_study(shared_dataset(), {"BW", "SA", "US", "JP"});
  ASSERT_EQ(tab.size(), 4u);
  // Median capacities ascend across the four markets.
  EXPECT_LT(tab[0].median_capacity_mbps, tab[1].median_capacity_mbps);
  EXPECT_LT(tab[1].median_capacity_mbps, tab[2].median_capacity_mbps);
  EXPECT_LT(tab[2].median_capacity_mbps, tab[3].median_capacity_mbps);
  // Income share descends: Botswana pays the most relative to income.
  EXPECT_GT(tab[0].income_share, tab[1].income_share);
  EXPECT_GT(tab[1].income_share, tab[2].income_share * 1.2);
  // GDP per capita anchored to the paper's values.
  EXPECT_DOUBLE_EQ(tab[2].gdp_per_capita_ppp, 49797);
}

TEST(Scorecard, MajorityOfClaimsReproduce) {
  const auto card = run_scorecard(shared_dataset());
  EXPECT_GE(card.total(), 18u);
  // At the reduced test scale some matched-pair checks go quiet; still,
  // most of the paper's claims must reproduce.
  EXPECT_GE(card.pass_rate(), 0.6) << [&] {
    std::ostringstream os;
    card.print(os);
    return os.str();
  }();
}

TEST(Scorecard, RendersBothFormats) {
  const auto card = run_scorecard(shared_dataset());
  std::ostringstream os;
  card.print(os);
  EXPECT_NE(os.str().find("reproduction scorecard"), std::string::npos);
  const auto md = card.to_markdown();
  EXPECT_NE(md.find("| check | paper |"), std::string::npos);
  EXPECT_NE(md.find("checks reproduced"), std::string::npos);
}

TEST(Tab5, RegionalOrderingMatchesPaper) {
  const auto tab = tab5_region_costs(shared_dataset());
  double africa1 = -1;
  double europe1 = -1;
  double na1 = -1;
  for (const auto& row : tab) {
    if (row.region == market::Region::kAfrica) africa1 = row.pct_above_1;
    if (row.region == market::Region::kEurope) europe1 = row.pct_above_1;
    if (row.region == market::Region::kNorthAmerica) na1 = row.pct_above_1;
  }
  EXPECT_GT(africa1, 80.0);
  EXPECT_LT(europe1, 35.0);
  EXPECT_LE(na1, 0.0 + 1e-9);
}

TEST(ArtifactRegistry, EveryRowRendersNonEmpty) {
  std::size_t figures = 0;
  std::size_t tables = 0;
  for (const auto& a : artifacts()) {
    std::ostringstream direct;
    a.render(direct, shared_dataset());
    EXPECT_FALSE(direct.str().empty()) << a.name;
    // The kind-checked entry points print the same bytes.
    std::ostringstream looked_up;
    if (a.kind == ArtifactKind::kFigure) {
      ++figures;
      EXPECT_TRUE(render_figure(looked_up, a.name, shared_dataset())) << a.name;
    } else {
      ++tables;
      EXPECT_TRUE(render_experiment(looked_up, a.name, shared_dataset())) << a.name;
    }
    EXPECT_EQ(looked_up.str(), direct.str()) << a.name;
  }
  EXPECT_EQ(figures, 12u);
  EXPECT_EQ(tables, 8u);
}

TEST(ArtifactRegistry, LookupChecksKindAndName) {
  EXPECT_NE(find_artifact("fig3", ArtifactKind::kFigure), nullptr);
  EXPECT_NE(find_artifact("tab4", ArtifactKind::kTable), nullptr);
  EXPECT_EQ(find_artifact("tab1", ArtifactKind::kFigure), nullptr);
  EXPECT_EQ(find_artifact("fig1", ArtifactKind::kTable), nullptr);
  EXPECT_EQ(find_artifact("fig13", ArtifactKind::kFigure), nullptr);
  EXPECT_EQ(find_artifact("", ArtifactKind::kTable), nullptr);

  std::ostringstream out;
  EXPECT_FALSE(render_figure(out, "tab1", shared_dataset()));
  EXPECT_FALSE(render_experiment(out, "fig1", shared_dataset()));
  EXPECT_FALSE(render_figure(out, "fig99", shared_dataset()));
  EXPECT_FALSE(render_experiment(out, "tab99", shared_dataset()));
  EXPECT_TRUE(out.str().empty());
}

// perfbench's `study` workload renders exactly these names, and CI pins
// the md5 of that output.
TEST(ArtifactRegistry, BenchmarkedNamesAreThePinnedEleven) {
  EXPECT_EQ(figure_names(),
            (std::vector<std::string>{"fig1", "fig2", "fig6", "fig10"}));
  EXPECT_EQ(experiment_names(),
            (std::vector<std::string>{"tab1", "tab2", "tab3", "tab5", "tab6",
                                      "tab7", "tab8"}));
}

}  // namespace
}  // namespace bblab::analysis
