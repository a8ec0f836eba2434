#include "analysis/render.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>

#include "analysis/figures.h"
#include "analysis/report.h"
#include "analysis/scorecard.h"
#include "analysis/tables.h"
#include "market/catalog.h"

namespace bblab::analysis {

namespace {

// Rows format with snprintf (not std::printf) so they go to `out`: a
// served response must carry the same bytes the CLI prints.

void fig1(std::ostream& out, const dataset::StudyDataset& ds) {
  const auto fig = fig1_characteristics(ds);
  print_ecdf(out, "capacity [Mbps]", fig.capacity_mbps);
  print_ecdf(out, "latency [ms]", fig.latency_ms);
  print_ecdf(out, "loss [%]", fig.loss_pct);
}

void fig2(std::ostream& out, const dataset::StudyDataset& ds) {
  const auto fig = fig2_capacity_vs_usage(ds);
  print_series(out, "mean w/ BT", fig.mean_bt);
  print_series(out, "p95 w/ BT", fig.peak_bt);
  print_series(out, "mean no BT", fig.mean_nobt);
  print_series(out, "p95 no BT", fig.peak_nobt);
}

void fig3(std::ostream& out, const dataset::StudyDataset& ds) {
  const auto fig = fig3_fcc_vs_dasu(ds);
  print_series(out, "(a) mean, FCC", fig.mean_fcc);
  print_series(out, "(a) mean, Dasu US", fig.mean_dasu_us);
  print_series(out, "(b) p95, FCC", fig.peak_fcc);
  print_series(out, "(b) p95, Dasu US", fig.peak_dasu_us);
}

void fig4(std::ostream& out, const dataset::StudyDataset& ds) {
  const auto fig = fig4_slow_fast_cdfs(ds);
  print_ecdf(out, "(a) mean usage, slow [kbps]", fig.mean_slow);
  print_ecdf(out, "(a) mean usage, fast [kbps]", fig.mean_fast);
  print_ecdf(out, "(b) p95 usage, slow [kbps]", fig.peak_slow);
  print_ecdf(out, "(b) p95 usage, fast [kbps]", fig.peak_fast);
}

void fig5(std::ostream& out, const dataset::StudyDataset& ds) {
  const auto fig = fig5_upgrade_deltas(ds);
  const auto& edges = fig.tier_edges;
  const auto panel = [&](const char* name, const std::vector<Fig5Cell>& cells) {
    out << "  " << name << "\n";
    for (const auto& c : cells) {
      char line[160];
      std::snprintf(line, sizeof line,
                    "    %6.3g-%-6.3g -> %6.3g-%-6.3g Mbps: %+9.4f Mbps ± %-8.4f (n=%zu)\n",
                    edges[c.from_tier], edges[c.from_tier + 1], edges[c.to_tier],
                    edges[c.to_tier + 1], c.change_mbps.mean,
                    c.change_mbps.half_width, c.users);
      out << line;
    }
  };
  panel("(a) mean, w/ BT", fig.mean_bt);
  panel("(b) p95, w/ BT", fig.peak_bt);
  panel("(c) mean, no BT", fig.mean_nobt);
  panel("(d) p95, no BT", fig.peak_nobt);
}

void fig6(std::ostream& out, const dataset::StudyDataset& ds) {
  const auto fig = fig6_longitudinal(ds);
  for (const auto& [year, series] : fig.peak_nobt) {
    print_series(out, "p95 no BT " + std::to_string(year), series);
  }
}

void fig7(std::ostream& out, const dataset::StudyDataset& ds) {
  const auto fig = fig7_country_cdfs(ds, kCaseStudyMarkets);
  for (const auto& c : fig) {
    print_ecdf(out, "(a) capacity [Mbps], " + c.code, c.capacity_mbps);
  }
  for (const auto& c : fig) {
    print_ecdf(out, "(b) p95 utilization, " + c.code, c.peak_utilization);
  }
}

void fig8(std::ostream& out, const dataset::StudyDataset& ds) {
  for (const auto& c : fig8_tier_utilization(ds, kCaseStudyMarkets)) {
    out << "  [" << c.code << "]\n";
    for (const auto& [tier, ecdf] : c.tiers) print_ecdf(out, tier, ecdf);
  }
}

void fig9(std::ostream& out, const dataset::StudyDataset& ds) {
  for (const auto& bar : fig9_tier_demand(ds, kCaseStudyMarkets)) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-3s %-11s %8.4f Mbps ± %-7.4f (n=%zu)\n",
                  bar.country.c_str(), bar.tier.c_str(), bar.peak_demand_mbps.mean,
                  bar.peak_demand_mbps.half_width, bar.users);
    out << line;
  }
}

void fig10(std::ostream& out, const dataset::StudyDataset& ds) {
  const auto fig = fig10_upgrade_cost_cdf(ds);
  print_ecdf(out, "$/Mbps across markets", fig.upgrade_cost);
  out << "  r>0.8: " << pct(fig.share_strong_corr)
      << ", r>0.4: " << pct(fig.share_moderate_corr) << "\n";
}

void fig11(std::ostream& out, const dataset::StudyDataset& ds) {
  const auto fig = fig11_india_latency(ds);
  print_ecdf(out, "NDT '11-'13, India [ms]", fig.ndt1113_india);
  print_ecdf(out, "NDT '11-'13, other [ms]", fig.ndt1113_other);
  print_ecdf(out, "NDT '14, India [ms]", fig.ndt14_india);
  print_ecdf(out, "NDT '14, other [ms]", fig.ndt14_other);
  print_ecdf(out, "Web '14, India [ms]", fig.web14_india);
  print_ecdf(out, "Web '14, other [ms]", fig.web14_other);
}

void fig12(std::ostream& out, const dataset::StudyDataset& ds) {
  const auto fig = fig12_india_loss(ds);
  print_ecdf(out, "loss [%], India", fig.loss_pct_india);
  print_ecdf(out, "loss [%], other", fig.loss_pct_other);
}

void tab1(std::ostream& out, const dataset::StudyDataset& ds) {
  const auto tab = tab1_upgrade_experiment(ds);
  print_experiment(out, tab.average);
  print_experiment(out, tab.peak);
}

void tab2(std::ostream& out, const dataset::StudyDataset& ds) {
  const auto tab = tab2_capacity_matching(ds);
  for (const auto& row : tab.dasu) print_experiment(out, row.result);
  for (const auto& row : tab.fcc) print_experiment(out, row.result);
}

void tab3(std::ostream& out, const dataset::StudyDataset& ds) {
  const auto tab = tab3_price_experiment(ds);
  print_experiment(out, tab.mid);
  print_experiment(out, tab.high);
}

void tab4(std::ostream& out, const dataset::StudyDataset& ds) {
  out << "  country             users  med.cap  tier    price    GDP pc   %income\n";
  for (const auto& row : tab4_case_study(ds, kCaseStudyMarkets)) {
    char line[200];
    std::snprintf(line, sizeof line,
                  "  %-18s %6zu  %7.3g  %6.3g  $%-7.4g $%-8.5g %.1f%%\n",
                  row.name.c_str(), row.users, row.median_capacity_mbps,
                  row.nearest_tier_mbps, row.tier_price_usd_ppp,
                  row.gdp_per_capita_ppp, row.income_share * 100.0);
    out << line;
  }
}

void tab5(std::ostream& out, const dataset::StudyDataset& ds) {
  for (const auto& row : tab5_region_costs(ds)) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "%-28s n=%zu  >$1 %5.1f%%  >$5 %5.1f%%  >$10 %5.1f%%\n",
                  market::region_label(row.region).c_str(), row.countries,
                  row.pct_above_1, row.pct_above_5, row.pct_above_10);
    out << line;
  }
}

void tab6(std::ostream& out, const dataset::StudyDataset& ds) {
  const auto tab = tab6_upgrade_cost_experiment(ds);
  print_experiment(out, tab.with_bt_mid);
  print_experiment(out, tab.with_bt_high);
  print_experiment(out, tab.no_bt_mid);
  print_experiment(out, tab.no_bt_high);
}

void tab7(std::ostream& out, const dataset::StudyDataset& ds) {
  const auto tab = tab7_latency_experiment(ds);
  for (const auto& row : tab.rows) print_experiment(out, row.result);
  print_experiment(out, tab.us_vs_india);
}

void tab8(std::ostream& out, const dataset::StudyDataset& ds) {
  for (const auto& row : tab8_loss_experiment(ds)) print_experiment(out, row.result);
}

constexpr auto kFigure = ArtifactKind::kFigure;
constexpr auto kTable = ArtifactKind::kTable;

constexpr Artifact kArtifacts[] = {
    {"fig1", kFigure, true, fig1},   {"fig2", kFigure, true, fig2},
    {"fig3", kFigure, false, fig3},  {"fig4", kFigure, false, fig4},
    {"fig5", kFigure, false, fig5},  {"fig6", kFigure, true, fig6},
    {"fig7", kFigure, false, fig7},  {"fig8", kFigure, false, fig8},
    {"fig9", kFigure, false, fig9},  {"fig10", kFigure, true, fig10},
    {"fig11", kFigure, false, fig11}, {"fig12", kFigure, false, fig12},
    {"tab1", kTable, true, tab1},    {"tab2", kTable, true, tab2},
    {"tab3", kTable, true, tab3},    {"tab4", kTable, false, tab4},
    {"tab5", kTable, true, tab5},    {"tab6", kTable, true, tab6},
    {"tab7", kTable, true, tab7},    {"tab8", kTable, true, tab8},
};

std::vector<std::string> benchmarked_names(ArtifactKind kind) {
  std::vector<std::string> names;
  for (const auto& a : kArtifacts) {
    if (a.kind == kind && a.benchmarked) names.emplace_back(a.name);
  }
  return names;
}

bool render_kind(std::ostream& out, const std::string& name, ArtifactKind kind,
                 const dataset::StudyDataset& ds) {
  const Artifact* artifact = find_artifact(name, kind);
  if (artifact == nullptr) return false;
  artifact->render(out, ds);
  return true;
}

}  // namespace

std::span<const Artifact> artifacts() { return kArtifacts; }

const Artifact* find_artifact(const std::string& name, ArtifactKind kind) {
  const auto* it = std::find_if(std::begin(kArtifacts), std::end(kArtifacts),
                                [&](const Artifact& a) { return name == a.name; });
  return it != std::end(kArtifacts) && it->kind == kind ? it : nullptr;
}

const std::vector<std::string>& figure_names() {
  static const std::vector<std::string> kNames = benchmarked_names(kFigure);
  return kNames;
}

const std::vector<std::string>& experiment_names() {
  static const std::vector<std::string> kNames = benchmarked_names(kTable);
  return kNames;
}

bool render_figure(std::ostream& out, const std::string& name,
                   const dataset::StudyDataset& ds) {
  return render_kind(out, name, kFigure, ds);
}

bool render_experiment(std::ostream& out, const std::string& name,
                       const dataset::StudyDataset& ds) {
  return render_kind(out, name, kTable, ds);
}

double render_scorecard(std::ostream& out, const dataset::StudyDataset& ds,
                        bool markdown) {
  const auto card = run_scorecard(ds);
  if (markdown) {
    out << card.to_markdown();
  } else {
    card.print(out);
  }
  return card.pass_rate();
}

}  // namespace bblab::analysis
