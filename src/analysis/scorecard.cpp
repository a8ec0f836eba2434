#include "analysis/scorecard.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "analysis/common.h"
#include "analysis/figures.h"
#include "analysis/report.h"
#include "analysis/tables.h"
#include "obs/metrics.h"

namespace bblab::analysis {

std::size_t Scorecard::passed() const {
  std::size_t n = 0;
  for (const auto& c : checks) {
    if (c.pass) ++n;
  }
  return n;
}

double Scorecard::pass_rate() const {
  return checks.empty() ? 0.0
                        : static_cast<double>(passed()) / static_cast<double>(total());
}

void Scorecard::print(std::ostream& out) const {
  std::array<char, 512> buf{};
  out << "reproduction scorecard: " << passed() << "/" << total() << " checks pass\n";
  for (const auto& c : checks) {
    std::snprintf(buf.data(), buf.size(), "  [%s] %-26s paper: %s | measured: %s\n",
                  c.pass ? "PASS" : "MISS", c.id.c_str(), c.claim.c_str(),
                  c.measured.c_str());
    out << buf.data();
  }
}

std::string Scorecard::to_markdown() const {
  std::ostringstream os;
  os << "| check | paper | this reproduction | verdict |\n"
     << "|---|---|---|---|\n";
  for (const auto& c : checks) {
    os << "| `" << c.id << "` | " << c.claim << " | " << c.measured << " | "
       << (c.pass ? "reproduced" : "**divergent**") << " |\n";
  }
  os << "\n**" << passed() << " / " << total() << " checks reproduced.**\n";
  return os.str();
}

namespace {

std::string frac_p(const causal::ExperimentResult& r) {
  std::array<char, 96> buf{};
  std::snprintf(buf.data(), buf.size(), "%.1f%% (p=%.2g, n=%zu)",
                r.test.fraction * 100.0, r.test.p_value, r.pairs);
  return std::string{buf.data()};
}

}  // namespace

Scorecard run_scorecard(const dataset::StudyDataset& ds) {
  Scorecard card;
  const auto add = [&](std::string id, std::string claim, std::string measured,
                       bool pass) {
    card.checks.push_back({std::move(id), std::move(claim), std::move(measured), pass});
  };

  // ---- Data hygiene: quarantine + coverage accounting. ---------------
  add("qc.quarantine", "dirty inputs filtered, not fatal", ds.qc.summary(),
      ds.qc.failure_rate() <= ds.config.max_household_failure_rate);
  {
    // dasu_records() applies ds.config.coverage, so the difference from
    // the raw record count is exactly the excluded population.
    const std::size_t kept = dasu_records(ds).size();
    const std::size_t dropped = ds.dasu.size() - kept;
    add("qc.coverage", "low-coverage users excluded from analyses",
        std::to_string(dropped) + "/" + std::to_string(ds.dasu.size()) +
            " below coverage floor",
        dropped * 2 <= ds.dasu.size());
  }
  {
    // ---- Robustness: the execution layer's own health. ---------------
    // A shard lost to I/O exhaustion or a deadline means the dataset is
    // partial — every downstream number still computes, but the scorecard
    // must say the panel is incomplete.
    const std::size_t io = ds.qc.count(QuarantineReason::kIoFailure);
    const std::size_t hung = ds.qc.count(QuarantineReason::kDeadlineExceeded);
    add("robustness.shard-integrity", "no shards lost to I/O or deadlines",
        std::to_string(io) + " io-failure, " + std::to_string(hung) +
            " deadline-exceeded",
        io + hung == 0);
    // And every quarantined row must carry a reason this build can name:
    // an unknown tag would mean the ledger was written by a future (or
    // corrupt) producer and the accounting above is untrustworthy.
    std::size_t unlabeled = 0;
    for (const auto& row : ds.qc.rows) {
      if (std::string{quarantine_reason_label(row.reason)} == "?") ++unlabeled;
    }
    add("robustness.reason-taxonomy", "every quarantined row has a typed reason",
        std::to_string(unlabeled) + "/" + std::to_string(ds.qc.rows.size()) +
            " unlabeled",
        unlabeled == 0);
  }
  {
    // ---- Observability: the metrics layer's own self-consistency. -----
    // These are invariants of the instrumentation, phrased so they hold
    // vacuously on cache-hit runs (generation counters all zero).
    const obs::Snapshot snap = obs::Registry::instance().snapshot();
    const auto counter = [&](const char* name) -> std::uint64_t {
      const auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0 : it->second;
    };
    add("obs.instrumentation", "metrics registry populated by this process",
        std::to_string(snap.counters.size()) + " counters registered",
        !snap.counters.empty());
    const std::uint64_t simulated = counter("gen.households_simulated");
    const std::uint64_t emitted = counter("gen.records_emitted");
    add("obs.household-accounting",
        "records emitted never exceed households simulated",
        std::to_string(emitted) + " records / " + std::to_string(simulated) +
            " simulated",
        emitted <= simulated);
    const std::uint64_t executed = counter("pool.tasks_executed");
    const std::uint64_t stolen = counter("pool.tasks_stolen");
    add("obs.pool-balance", "stolen tasks are a subset of executed tasks",
        std::to_string(stolen) + " stolen / " + std::to_string(executed) +
            " executed",
        stolen <= executed);
  }

  // ---- Fig. 1: population characteristics. --------------------------
  const auto fig1 = fig1_characteristics(ds);
  add("fig1.capacity-median", "median download capacity 7.4 Mbps",
      num(fig1.capacity_mbps.inverse(0.5)) + " Mbps",
      fig1.capacity_mbps.inverse(0.5) > 3.0 && fig1.capacity_mbps.inverse(0.5) < 15.0);
  add("fig1.loss-tail", "~14% of users above 1% loss",
      pct(1.0 - fig1.loss_pct(1.0)),
      std::fabs((1.0 - fig1.loss_pct(1.0)) - 0.14) < 0.08);
  add("fig1.rtt-median", "typical RTT ~100 ms", num(fig1.latency_ms.inverse(0.5)) + " ms",
      fig1.latency_ms.inverse(0.5) > 40 && fig1.latency_ms.inverse(0.5) < 200);

  // ---- Fig. 2: capacity vs usage. ------------------------------------
  const auto fig2 = fig2_capacity_vs_usage(ds);
  const double min_r = std::min(std::min(fig2.mean_bt.r, fig2.peak_bt.r),
                                std::min(fig2.mean_nobt.r, fig2.peak_nobt.r));
  add("fig2.correlation", "usage-capacity correlation r >= 0.87 in all panels",
      "min r = " + num(min_r), min_r >= 0.85);
  bool diminishing = false;
  if (fig2.peak_nobt.points.size() >= 4) {
    const auto& p = fig2.peak_nobt.points;
    const double low_gain = p[1].usage_mbps.mean / std::max(1e-9, p[0].usage_mbps.mean);
    const double high_gain = p[p.size() - 1].usage_mbps.mean /
                             std::max(1e-9, p[p.size() - 2].usage_mbps.mean);
    diminishing = high_gain < low_gain;
    add("fig2.diminishing-returns", "demand growth flattens at higher capacities",
        num(low_gain) + "x (low bins) vs " + num(high_gain) + "x (high bins)",
        diminishing);
  }

  // ---- Tab. 1 / Fig. 4: within-user upgrades. ------------------------
  const auto tab1 = tab1_upgrade_experiment(ds);
  add("tab1.average", "avg demand rises after upgrade, 66.8%, p<<0.05",
      frac_p(tab1.average), tab1.average.test.conclusive());
  add("tab1.peak", "peak demand rises after upgrade, 70.3%, p<<0.05",
      frac_p(tab1.peak), tab1.peak.test.conclusive());
  const auto fig4 = fig4_slow_fast_cdfs(ds);
  if (!fig4.mean_slow.empty()) {
    const double mean_ratio = fig4.mean_fast.inverse(0.5) / fig4.mean_slow.inverse(0.5);
    add("fig4.median-shift", "median usage roughly doubles slow->fast",
        num(mean_ratio) + "x", mean_ratio > 1.1);
  }

  // ---- Tab. 2: matched capacity experiment. ---------------------------
  const auto tab2 = tab2_capacity_matching(ds);
  double low = 0.0;
  int low_n = 0;
  double high = 0.0;
  int high_n = 0;
  for (const auto& row : tab2.dasu) {
    if (row.result.test.trials < 20) continue;
    if (row.control_bin <= 6) {
      low += row.result.test.fraction;
      ++low_n;
    } else {
      high += row.result.test.fraction;
      ++high_n;
    }
  }
  if (low_n > 0) {
    add("tab2.low-tiers", "capacity raises demand at low tiers (53-75%)",
        pct(low / low_n), low / low_n > 0.53);
  }
  if (low_n > 0 && high_n > 0) {
    add("tab2.fade", "effect fades above ~12.8 Mbps",
        pct(low / low_n) + " vs " + pct(high / high_n),
        high / high_n < low / low_n + 0.02);
  }

  // ---- Fig. 6: longitudinal stability. --------------------------------
  const auto fig6 = fig6_longitudinal(ds);
  bool flat = !fig6.year_experiments.empty();
  std::string year_measured;
  for (const auto& e : fig6.year_experiments) {
    year_measured += pct(e.test.fraction) + " ";
    if (e.test.conclusive() && e.test.fraction > 0.55) flat = false;
  }
  add("fig6.flat-demand", "no significant within-class demand change 2011-2013",
      year_measured.empty() ? "n/a" : year_measured, flat);

  // ---- Tab. 3: price of access. ---------------------------------------
  const auto tab3 = tab3_price_experiment(ds);
  add("tab3.mid", "pricier markets -> higher demand, 63.4%", frac_p(tab3.mid),
      tab3.mid.test.fraction > 0.52);
  add("tab3.high", "most expensive markets strongest, 72.2%", frac_p(tab3.high),
      tab3.high.test.fraction > 0.51);

  // ---- Tab. 4 / Fig. 7: case study. -----------------------------------
  const auto fig7 = fig7_country_cdfs(ds, kCaseStudyMarkets);
  if (fig7.size() == 4 && !fig7[0].capacity_mbps.empty()) {
    const bool caps_ascend =
        fig7[0].capacity_mbps.inverse(0.5) < fig7[1].capacity_mbps.inverse(0.5) &&
        fig7[1].capacity_mbps.inverse(0.5) < fig7[2].capacity_mbps.inverse(0.5) &&
        fig7[2].capacity_mbps.inverse(0.5) < fig7[3].capacity_mbps.inverse(0.5);
    add("fig7.capacity-order", "median capacity ascends BW < SA < US < JP",
        num(fig7[0].capacity_mbps.inverse(0.5)) + " / " +
            num(fig7[1].capacity_mbps.inverse(0.5)) + " / " +
            num(fig7[2].capacity_mbps.inverse(0.5)) + " / " +
            num(fig7[3].capacity_mbps.inverse(0.5)) + " Mbps",
        caps_ascend);
    const bool util_reversed =
        fig7[0].peak_utilization.inverse(0.5) > fig7[1].peak_utilization.inverse(0.5) &&
        fig7[1].peak_utilization.inverse(0.5) > fig7[2].peak_utilization.inverse(0.5) &&
        fig7[2].peak_utilization.inverse(0.5) >=
            fig7[3].peak_utilization.inverse(0.5) * 0.9;
    add("fig7.utilization-order", "peak utilization in exactly reverse order",
        pct(fig7[0].peak_utilization.inverse(0.5)) + " / " +
            pct(fig7[1].peak_utilization.inverse(0.5)) + " / " +
            pct(fig7[2].peak_utilization.inverse(0.5)) + " / " +
            pct(fig7[3].peak_utilization.inverse(0.5)),
        util_reversed);
  }

  // ---- Fig. 10 / Tab. 5: upgrade-cost geography. -----------------------
  const auto fig10 = fig10_upgrade_cost_cdf(ds);
  add("fig10.correlation-shares", "66% of markets r>0.8; 81% r>0.4",
      pct(fig10.share_strong_corr) + " / " + pct(fig10.share_moderate_corr),
      fig10.share_strong_corr > 0.5 && fig10.share_moderate_corr > 0.7);
  const bool anchors = fig10.examples.count("JP") && fig10.examples.count("US") &&
                       fig10.examples.count("GH") &&
                       fig10.examples.at("JP") < fig10.examples.at("US") &&
                       fig10.examples.at("US") < fig10.examples.at("GH");
  add("fig10.anchor-order", "JP < US < Ghana in $/Mbps",
      anchors ? "ordered correctly" : "misordered", anchors);

  const auto tab5 = tab5_region_costs(ds);
  double africa1 = -1;
  double europe1 = -1;
  double na10 = -1;
  for (const auto& row : tab5) {
    if (row.region == market::Region::kAfrica) africa1 = row.pct_above_1;
    if (row.region == market::Region::kEurope) europe1 = row.pct_above_1;
    if (row.region == market::Region::kNorthAmerica) na10 = row.pct_above_10;
  }
  add("tab5.regions", "Africa ~100% above $1; Europe ~10%; North America 0%",
      num(africa1) + "% / " + num(europe1) + "% / " + num(na10) + "%",
      africa1 > 80 && europe1 < 35 && na10 <= 0.01);

  // ---- Tab. 6: cost of upgrading. --------------------------------------
  const auto tab6 = tab6_upgrade_cost_experiment(ds);
  add("tab6.direction", "pricier upgrades -> higher demand (53.8/58.7%)",
      frac_p(tab6.with_bt_mid) + " ; " + frac_p(tab6.with_bt_high),
      tab6.with_bt_high.test.fraction > 0.51);

  // ---- Tab. 7 / Fig. 11: latency. ---------------------------------------
  const auto tab7 = tab7_latency_experiment(ds);
  double t7 = 0.0;
  int t7n = 0;
  for (const auto& row : tab7.rows) {
    if (row.result.test.trials < 15) continue;
    t7 += row.result.test.fraction;
    ++t7n;
  }
  if (t7n > 0) {
    add("tab7.latency", "lower latency -> higher demand (56-64%)", pct(t7 / t7n),
        t7 / t7n > 0.54);
  }
  if (tab7.us_vs_india.test.trials > 20) {
    add("tab7.india", "US beats capacity-matched India users 62% of the time",
        frac_p(tab7.us_vs_india), tab7.us_vs_india.test.fraction > 0.55);
  }
  const auto fig11 = fig11_india_latency(ds);
  add("fig11.india-latency", "nearly every Indian user above 100 ms",
      pct(1.0 - fig11.ndt1113_india(100.0)) + " above 100 ms",
      1.0 - fig11.ndt1113_india(100.0) > 0.8);

  // ---- Tab. 8 / Fig. 12: loss. -------------------------------------------
  const auto tab8 = tab8_loss_experiment(ds);
  double t8 = 0.0;
  int t8n = 0;
  for (const auto& row : tab8) {
    if (row.result.test.trials < 15) continue;
    t8 += row.result.test.fraction;
    ++t8n;
  }
  if (t8n > 0) {
    add("tab8.loss", "lower loss -> higher demand (53-59%)", pct(t8 / t8n),
        t8 / t8n > 0.52);
  }
  const auto fig12 = fig12_india_loss(ds);
  add("fig12.india-loss", "Indian users see much higher loss",
      num(fig12.loss_pct_india.inverse(0.5)) + "% vs " +
          num(fig12.loss_pct_other.inverse(0.5)) + "% median",
      fig12.loss_pct_india.inverse(0.5) > 2.0 * fig12.loss_pct_other.inverse(0.5));

  return card;
}

}  // namespace bblab::analysis
