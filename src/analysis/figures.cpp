#include "analysis/figures.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/error.h"
#include "core/rng.h"
#include "stats/binning.h"
#include "stats/correlation.h"
#include "stats/quantile.h"

namespace bblab::analysis {

using dataset::UserRecord;
using stats::CapacityBins;

BinSeries bin_usage_series(
    std::span<const RecordPtr> records,
    const std::function<double(const UserRecord&)>& outcome_bps,
    std::size_t min_users_per_bin) {
  std::map<int, std::vector<double>> by_bin;
  for (const auto* r : records) {
    const double out = outcome_bps(*r);
    if (!(out > 0.0)) continue;  // log-scale figures drop zero-usage users
    by_bin[CapacityBins::bin_of(r->capacity)].push_back(out / 1e6);  // -> Mbps
  }

  BinSeries series;
  std::vector<double> log_x;
  std::vector<double> log_y;
  for (const auto& [bin, usages] : by_bin) {
    if (usages.size() < min_users_per_bin) continue;
    BinPoint p;
    p.bin = bin;
    p.capacity_mbps = CapacityBins::midpoint(bin).mbps();
    p.usage_mbps = stats::mean_ci95(usages);
    p.users = usages.size();
    series.points.push_back(p);
    log_x.push_back(std::log10(p.capacity_mbps));
    log_y.push_back(std::log10(std::max(1e-6, p.usage_mbps.mean)));
  }
  series.r = stats::pearson(log_x, log_y);
  return series;
}

Fig1Result fig1_characteristics(const dataset::StudyDataset& ds) {
  const auto records = dasu_records(ds);
  // One pointer-chasing pass into SoA columns, then three contiguous sorts.
  const auto cols = extract_columns(records);
  Fig1Result fig;
  fig.capacity_mbps = stats::Ecdf{cols.capacity_mbps};
  fig.latency_ms = stats::Ecdf{cols.rtt_ms};
  fig.loss_pct = stats::Ecdf{cols.loss_pct};
  return fig;
}

Fig2Result fig2_capacity_vs_usage(const dataset::StudyDataset& ds) {
  const auto records = dasu_records(ds);
  Fig2Result fig;
  fig.mean_bt = bin_usage_series(
      records, [](const UserRecord& r) { return mean_down_bps(r, true); });
  fig.peak_bt = bin_usage_series(
      records, [](const UserRecord& r) { return peak_down_bps(r, true); });
  fig.mean_nobt = bin_usage_series(
      records, [](const UserRecord& r) { return mean_down_bps(r, false); });
  fig.peak_nobt = bin_usage_series(
      records, [](const UserRecord& r) { return peak_down_bps(r, false); });
  return fig;
}

namespace {

double pooled_log_r(const BinSeries& a, const BinSeries& b) {
  std::vector<double> x;
  std::vector<double> y;
  for (const auto* s : {&a, &b}) {
    for (const auto& p : s->points) {
      x.push_back(std::log10(p.capacity_mbps));
      y.push_back(std::log10(std::max(1e-6, p.usage_mbps.mean)));
    }
  }
  return stats::pearson(x, y);
}

}  // namespace

Fig3Result fig3_fcc_vs_dasu(const dataset::StudyDataset& ds) {
  const auto fcc = fcc_records(ds);
  const auto dasu_all = dasu_records(ds);
  const auto dasu_us =
      filter(dasu_all, [](const UserRecord& r) { return r.country_code == "US"; });

  Fig3Result fig;
  fig.mean_fcc = bin_usage_series(
      fcc, [](const UserRecord& r) { return mean_down_bps(r, true); });
  fig.peak_fcc = bin_usage_series(
      fcc, [](const UserRecord& r) { return peak_down_bps(r, true); });
  fig.mean_dasu_us = bin_usage_series(
      dasu_us, [](const UserRecord& r) { return mean_down_bps(r, false); });
  fig.peak_dasu_us = bin_usage_series(
      dasu_us, [](const UserRecord& r) { return peak_down_bps(r, false); });
  fig.r_mean = pooled_log_r(fig.mean_fcc, fig.mean_dasu_us);
  fig.r_peak = pooled_log_r(fig.peak_fcc, fig.peak_dasu_us);
  return fig;
}

Fig4Result fig4_slow_fast_cdfs(const dataset::StudyDataset& ds) {
  std::vector<double> mean_slow;
  std::vector<double> mean_fast;
  std::vector<double> peak_slow;
  std::vector<double> peak_fast;
  for (const auto& u : ds.upgrades) {
    if (!u.is_upgrade()) continue;
    mean_slow.push_back(u.before.mean_down_no_bt.kbps());
    mean_fast.push_back(u.after.mean_down_no_bt.kbps());
    peak_slow.push_back(u.before.peak_down_no_bt.kbps());
    peak_fast.push_back(u.after.peak_down_no_bt.kbps());
  }
  Fig4Result fig;
  fig.mean_slow = stats::Ecdf{mean_slow};
  fig.mean_fast = stats::Ecdf{mean_fast};
  fig.peak_slow = stats::Ecdf{peak_slow};
  fig.peak_fast = stats::Ecdf{peak_fast};
  return fig;
}

namespace {

std::vector<Fig5Cell> fig5_panel(
    const dataset::StudyDataset& ds, const stats::EdgeBins& tiers,
    const std::function<double(const measurement::UsageSummary&)>& metric_bps) {
  // (from, to) -> list of per-user demand changes in Mbps.
  std::map<std::pair<std::size_t, std::size_t>, std::vector<double>> deltas;
  for (const auto& u : ds.upgrades) {
    if (!u.is_upgrade()) continue;
    const auto from = tiers.bin_of(u.old_capacity.mbps());
    const auto to = tiers.bin_of(u.new_capacity.mbps());
    if (!from || !to) continue;
    deltas[{*from, *to}].push_back((metric_bps(u.after) - metric_bps(u.before)) / 1e6);
  }
  std::vector<Fig5Cell> cells;
  for (const auto& [key, values] : deltas) {
    Fig5Cell cell;
    cell.from_tier = key.first;
    cell.to_tier = key.second;
    cell.change_mbps = stats::mean_ci95(values);
    cell.users = values.size();
    cells.push_back(cell);
  }
  return cells;
}

}  // namespace

Fig5Result fig5_upgrade_deltas(const dataset::StudyDataset& ds) {
  Fig5Result fig;
  fig.tier_edges = {0.25, 1.0, 4.0, 16.0, 64.0, 256.0};
  const stats::EdgeBins tiers{fig.tier_edges};
  fig.mean_bt = fig5_panel(ds, tiers, [](const measurement::UsageSummary& s) {
    return s.mean_down.bps();
  });
  fig.peak_bt = fig5_panel(ds, tiers, [](const measurement::UsageSummary& s) {
    return s.peak_down.bps();
  });
  fig.mean_nobt = fig5_panel(ds, tiers, [](const measurement::UsageSummary& s) {
    return s.mean_down_no_bt.bps();
  });
  fig.peak_nobt = fig5_panel(ds, tiers, [](const measurement::UsageSummary& s) {
    return s.peak_down_no_bt.bps();
  });
  return fig;
}

Fig6Result fig6_longitudinal(const dataset::StudyDataset& ds) {
  Fig6Result fig;
  const auto records = dasu_records(ds);
  // Radix group-by on the year column: one stable O(n) pass replaces the
  // per-record map insertions; groups come out ascending by year with
  // record order preserved inside each group, exactly like the old map.
  const auto cols = extract_columns(records);
  const auto by_year = stats::group_by_key(cols.year);
  std::vector<std::vector<RecordPtr>> year_recs(by_year.keys.size());
  for (std::size_t g = 0; g < by_year.keys.size(); ++g) {
    auto& recs = year_recs[g];
    recs.reserve(by_year.offsets[g + 1] - by_year.offsets[g]);
    for (std::uint32_t i = by_year.offsets[g]; i < by_year.offsets[g + 1]; ++i) {
      recs.push_back(records[by_year.order[i]]);
    }
  }

  for (std::size_t g = 0; g < by_year.keys.size(); ++g) {
    const int year = static_cast<int>(by_year.keys[g]);
    const auto& recs = year_recs[g];
    fig.mean_bt[year] = bin_usage_series(
        recs, [](const UserRecord& r) { return mean_down_bps(r, true); });
    fig.peak_bt[year] = bin_usage_series(
        recs, [](const UserRecord& r) { return peak_down_bps(r, true); });
    fig.mean_nobt[year] = bin_usage_series(
        recs, [](const UserRecord& r) { return mean_down_bps(r, false); });
    fig.peak_nobt[year] = bin_usage_series(
        recs, [](const UserRecord& r) { return peak_down_bps(r, false); });
  }

  // Natural experiment: is demand in later years higher than in the first
  // year for otherwise similar users (same capacity/quality/market)? The
  // paper finds no significant change at any tier.
  if (by_year.keys.size() >= 2) {
    const auto first = static_cast<int>(by_year.keys.front());
    const auto& cov = covariates::kPriceExperiment;  // capacity, rtt, loss, upgrade cost
    const auto outcome = peak_down_field(false);
    const auto control_units = make_units(year_recs.front(), outcome, cov);
    causal::ExperimentOptions options;
    options.matcher.absolute_slacks = {1e-9, 1e-9, 2e-4, 0.02};  // cap, rtt, loss, cost
    const causal::NaturalExperiment experiment{options};
    for (std::size_t g = 1; g < by_year.keys.size(); ++g) {
      const auto treated_units = make_units(year_recs[g], outcome, cov);
      fig.year_experiments.push_back(experiment.run(
          std::to_string(first) + " vs " +
              std::to_string(static_cast<int>(by_year.keys[g])),
          treated_units, control_units));
    }
  }
  return fig;
}

Fig7Result fig7_country_cdfs(const dataset::StudyDataset& ds,
                             const std::vector<std::string>& countries) {
  const auto records = dasu_records(ds);
  // One radix group-by on the packed country key serves every requested
  // country, instead of a full-population filter pass per country.
  const auto cols = extract_columns(records);
  const auto by_country = stats::group_by_key(cols.country);
  Fig7Result fig;
  for (const auto& code : countries) {
    Fig7Country c;
    c.code = code;
    const auto key = pack_country(code);
    const auto it =
        std::lower_bound(by_country.keys.begin(), by_country.keys.end(), key);
    if (it != by_country.keys.end() && *it == key) {
      const auto g = static_cast<std::size_t>(it - by_country.keys.begin());
      const std::span<const std::uint32_t> idx{
          by_country.order.data() + by_country.offsets[g],
          by_country.offsets[g + 1] - by_country.offsets[g]};
      c.capacity_mbps = stats::Ecdf{gather(cols.capacity_mbps, idx)};
      c.peak_utilization = stats::Ecdf{gather(cols.peak_utilization_no_bt, idx)};
    }
    fig.push_back(std::move(c));
  }
  return fig;
}

Fig8Result fig8_tier_utilization(const dataset::StudyDataset& ds,
                                 const std::vector<std::string>& countries) {
  const auto records = dasu_records(ds);
  Fig8Result fig;
  for (const auto& code : countries) {
    const auto recs =
        filter(records, [&](const UserRecord& r) { return r.country_code == code; });
    Fig8Country c;
    c.code = code;
    for (const auto tier : stats::all_tiers()) {
      const auto tier_recs = filter(recs, [&](const UserRecord& r) {
        return stats::tier_of(r.capacity) == tier;
      });
      if (tier_recs.size() < 30) continue;  // the paper's minimum-population rule
      c.tiers[stats::tier_label(tier)] =
          stats::Ecdf{column(tier_recs, [](const UserRecord& r) {
            return std::min(1.0, r.peak_utilization_no_bt());
          })};
    }
    fig.push_back(std::move(c));
  }
  return fig;
}

Fig9Result fig9_tier_demand(const dataset::StudyDataset& ds,
                            const std::vector<std::string>& countries) {
  const auto records = dasu_records(ds);
  Fig9Result fig;
  for (const auto& code : countries) {
    for (const auto tier : stats::all_tiers()) {
      const auto recs = filter(records, [&](const UserRecord& r) {
        return r.country_code == code && stats::tier_of(r.capacity) == tier;
      });
      if (recs.size() < 30) continue;
      Fig9Bar bar;
      bar.country = code;
      bar.tier = stats::tier_label(tier);
      bar.peak_demand_mbps = stats::mean_ci95(column(
          recs, [](const UserRecord& r) { return peak_down_bps(r, false) / 1e6; }));
      bar.users = recs.size();
      fig.push_back(std::move(bar));
    }
  }
  return fig;
}

Fig10Result fig10_upgrade_cost_cdf(const dataset::StudyDataset& ds) {
  Fig10Result fig;
  std::vector<double> slopes;
  std::size_t strong = 0;
  std::size_t moderate = 0;
  for (const auto& [code, snap] : ds.markets) {
    if (snap.price_capacity_r > 0.8) ++strong;
    if (snap.price_capacity_r > 0.4) {
      ++moderate;
      slopes.push_back(snap.upgrade_cost_per_mbps);
      fig.examples[code] = snap.upgrade_cost_per_mbps;
    }
  }
  fig.upgrade_cost = stats::Ecdf{slopes};
  const auto n = static_cast<double>(ds.markets.size());
  fig.share_strong_corr = n > 0 ? static_cast<double>(strong) / n : 0.0;
  fig.share_moderate_corr = n > 0 ? static_cast<double>(moderate) / n : 0.0;
  return fig;
}

namespace {

/// Record indices split on the packed-country key (record order kept).
std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>> split_country(
    const RecordColumns& cols, std::uint64_t key) {
  std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>> out;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    (cols.country[i] == key ? out.first : out.second)
        .push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

}  // namespace

Fig11Result fig11_india_latency(const dataset::StudyDataset& ds) {
  const auto records = dasu_records(ds);
  const auto cols = extract_columns(records);
  const auto [india, other] = split_country(cols, pack_country("IN"));

  // The paper's 2014 follow-up measured (a) a fresh NDT latency sample and
  // (b) the median latency to five popular websites, for the same users.
  // We model both as re-measurements of the same underlying path with
  // small instrument jitter, seeded per-user for determinism.
  const auto jittered = [&cols](std::span<const std::uint32_t> idx,
                                std::uint64_t salt, double sigma) {
    std::vector<double> out;
    out.reserve(idx.size());
    for (const std::uint32_t i : idx) {
      Rng rng{cols.user_id[i] * 0x9e3779b97f4a7c15ULL + salt};
      out.push_back(cols.rtt_ms[i] * std::exp(rng.normal(0.0, sigma)));
    }
    return out;
  };

  Fig11Result fig;
  fig.ndt1113_india = stats::Ecdf{gather(cols.rtt_ms, india)};
  fig.ndt1113_other = stats::Ecdf{gather(cols.rtt_ms, other)};
  fig.ndt14_india = stats::Ecdf{jittered(india, 0xA1, 0.10)};
  fig.ndt14_other = stats::Ecdf{jittered(other, 0xA1, 0.10)};
  fig.web14_india = stats::Ecdf{jittered(india, 0xB2, 0.18)};
  fig.web14_other = stats::Ecdf{jittered(other, 0xB2, 0.18)};
  return fig;
}

Fig12Result fig12_india_loss(const dataset::StudyDataset& ds) {
  const auto records = dasu_records(ds);
  const auto cols = extract_columns(records);
  const auto [india, other] = split_country(cols, pack_country("IN"));
  Fig12Result fig;
  fig.loss_pct_india = stats::Ecdf{gather(cols.loss_pct, india)};
  fig.loss_pct_other = stats::Ecdf{gather(cols.loss_pct, other)};
  return fig;
}

}  // namespace bblab::analysis
