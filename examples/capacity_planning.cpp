// Capacity planning: the operator-facing use case from the paper's
// discussion (§9) — "as service capacities continue to increase, network
// operators can plan on higher over-provisioning rates".
//
// For a hypothetical ISP we sweep the offered service tier and report the
// expected per-subscriber mean/p95 demand and the implied aggregation
// over-subscription ratio, using the library's demand model end to end.
#include <array>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "behavior/demand.h"
#include "core/rng.h"
#include "measurement/collectors.h"
#include "measurement/usage.h"
#include "netsim/fluid.h"
#include "netsim/workload.h"
#include "stats/descriptive.h"
#include "stats/quantile.h"

int main() {
  using namespace bblab;
  constexpr int kSubscribersPerTier = 120;
  const std::vector<double> tiers{1, 4, 10, 25, 50, 100};

  const SimClock clock{2014};
  const netsim::DiurnalModel diurnal{netsim::DiurnalParams{}, clock};
  const netsim::WorkloadGenerator workload{diurnal};
  const behavior::DemandModel demand;
  const measurement::GatewayCollector gateway;
  Rng root{7};

  std::cout << "simulating " << kSubscribersPerTier << " subscribers per tier, "
            << "2 days each...\n\n";
  std::cout << "  tier      mean demand    p95 demand    p95 util   safe oversub*\n";

  measurement::SummaryColumns columns;
  std::array<char, 160> buf{};
  for (const double tier_mbps : tiers) {
    std::vector<double> means;
    std::vector<double> peaks;
    for (int s = 0; s < kSubscribersPerTier; ++s) {
      Rng rng = root.fork(static_cast<std::uint64_t>(tier_mbps * 1000) + s);
      netsim::AccessLink link;
      link.down = Rate::from_mbps(tier_mbps);
      link.up = Rate::from_mbps(tier_mbps / 8);
      link.rtt_ms = rng.lognormal(std::log(45.0), 0.4);
      link.loss = rng.lognormal(std::log(8e-4), 1.0);

      behavior::SubscriberContext ctx;
      ctx.archetype = behavior::ArchetypeMix::fcc().sample(rng);
      // Households on this tier: need scattered around the tier itself.
      ctx.need_mbps = rng.lognormal(std::log(tier_mbps * 0.9), 0.7);
      ctx.link = link;
      ctx.bt_user = behavior::traits_of(ctx.archetype).bt_sessions_per_day > 0;

      const double phase = rng.normal(0.0, 1.5);
      const double noise = std::exp(rng.normal(0.0, demand.params().intensity_log_sigma));
      const auto wp = demand.workload_params(ctx, noise, phase);
      const auto flows = workload.generate(wp, link, 0.0, 2 * kDay, rng);
      const netsim::FluidLinkSimulator sim{link};
      const auto truth = sim.run(flows, 0.0, 2 * 2880, 30.0);
      columns.clear();
      gateway.sample(truth, [&](SimTime, double, Rate down, Rate up, bool bt_active) {
        columns.add(down, up, bt_active);
      });
      const auto summary = measurement::summarize(columns);
      means.push_back(summary.mean_down.mbps());
      peaks.push_back(summary.peak_down.mbps());
    }
    const double mean = stats::mean(means);
    const double p95 = stats::mean(peaks);
    // Rule-of-thumb oversubscription: tier / average of per-user p95
    // (how many subscribers can share one tier-worth of backhaul).
    const double oversub = p95 > 0 ? tier_mbps / p95 : 0.0;
    std::snprintf(buf.data(), buf.size(),
                  "  %5.0f Mbps  %8.3f Mbps  %9.3f Mbps  %7.1f%%   %6.1f : 1\n",
                  tier_mbps, mean, p95, 100.0 * p95 / tier_mbps, oversub);
    std::cout << buf.data();
  }
  std::cout << "\n* subscribers per tier-equivalent of backhaul at mean p95 demand.\n"
            << "The law of diminishing returns (paper §3) appears as the rising\n"
            << "safe-oversubscription column: faster tiers use ever-smaller\n"
            << "fractions of their link.\n";
  return 0;
}
