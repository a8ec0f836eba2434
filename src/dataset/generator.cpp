#include "dataset/generator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include <optional>

#include <atomic>

#include "behavior/caps.h"
#include "core/error.h"
#include "core/hash.h"
#include "core/logging.h"
#include "core/thread_pool.h"
#include "core/watchdog.h"
#include "measurement/pipeline.h"
#include "netsim/fluid.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace bblab::dataset {

using behavior::Archetype;
using behavior::ArchetypeMix;
using behavior::DemandModel;
using behavior::SubscriberContext;
using market::Household;
using market::PlanCatalog;
using market::ServicePlan;
using netsim::AccessLink;

std::vector<const UserRecord*> StudyDataset::dasu_in(const std::string& country) const {
  std::vector<const UserRecord*> out;
  for (const auto& r : dasu) {
    if (r.country_code == country) out.push_back(&r);
  }
  return out;
}

void StudyConfig::fingerprint(core::Hasher& hasher) const {
  hasher.update_string("dataset::StudyConfig");
  hasher.update_u64(seed);
  // threads intentionally not hashed: output is thread-count invariant.
  hasher.update_double(population_scale);
  hasher.update_double(window_days);
  hasher.update_double(dasu_bin_s);
  hasher.update_u64(fcc_users);
  hasher.update_double(fcc_window_days);
  hasher.update_i64(first_year);
  hasher.update_i64(last_year);
  hasher.update_double(upgrade_follow_share);
  hasher.update_i64(upgrade_horizon_years);
  hasher.update_double(exogenous_upgrade_share);
  hasher.update_double(annual_subscriber_growth);
  hasher.update_double(annual_need_growth);
  faults.fingerprint(hasher);
  hasher.update_double(max_household_failure_rate);
  hasher.update_u64(coverage.min_samples);
  hasher.update_double(coverage.min_days);
  hasher.update_bool(placebo);
  hasher.update_bool(disable_capacity_effect);
  hasher.update_bool(disable_pressure_effect);
  hasher.update_bool(disable_quality_effect);
}

StudyGenerator::StudyGenerator(const market::World& world, StudyConfig config)
    : world_{world}, config_{config} {
  require(config_.population_scale > 0.0, "StudyGenerator: population_scale > 0");
  require(config_.window_days > 0.0, "StudyGenerator: window_days > 0");
  require(config_.last_year >= config_.first_year, "StudyGenerator: bad year range");
}

namespace {

/// Assign line quality for a subscriber in this country: wireline users
/// draw around the country's base RTT/loss; the wireless/satellite share
/// draws from a much worse regime (the paper traces its very-high-latency
/// and very-high-loss tails to exactly those technologies).
AccessLink make_link(const market::CountryProfile& country, const ServicePlan& plan,
                     Rng& rng) {
  AccessLink link;
  // Provisioned rate vs advertised rate: DSL sync rates degrade with loop
  // length, cable nodes are shared, fiber delivers what it says. This is
  // why the paper works with the *measured* maximum capacity rather than
  // the advertised tier.
  double sync = 1.0;
  switch (plan.tech) {
    case market::AccessTech::kDsl: sync = rng.uniform(0.65, 1.0); break;
    case market::AccessTech::kCable: sync = rng.uniform(0.85, 1.05); break;
    case market::AccessTech::kFiber: sync = rng.uniform(0.95, 1.02); break;
    case market::AccessTech::kFixedWireless: sync = rng.uniform(0.5, 1.0); break;
    case market::AccessTech::kSatellite: sync = rng.uniform(0.5, 1.0); break;
  }
  link.down = plan.download * sync;
  link.up = plan.upload * std::min(1.0, sync * rng.uniform(0.95, 1.1));
  const bool wireless = plan.tech == market::AccessTech::kFixedWireless ||
                        plan.tech == market::AccessTech::kSatellite ||
                        rng.bernoulli(country.wireless_share * 0.8);
  if (wireless) {
    const bool satellite = rng.bernoulli(0.25);
    const double base = satellite ? 650.0 : country.base_rtt_ms * 2.2;
    link.rtt_ms = rng.lognormal(std::log(base), 0.35);
    link.loss = std::min(0.3, rng.lognormal(std::log(std::max(
                                  0.004, country.base_loss * 4.0)),
                              0.9));
  } else {
    link.rtt_ms = rng.lognormal(std::log(country.base_rtt_ms), country.rtt_log_sigma);
    link.loss =
        std::min(0.3, rng.lognormal(std::log(country.base_loss), country.loss_log_sigma));
  }
  link.rtt_ms = std::clamp(link.rtt_ms, 3.0, 3000.0);
  return link;
}

/// Simulation toolkit shared across the generation loops.
struct Toolkit {
  SimClock clock{2011};
  netsim::DiurnalModel diurnal;
  netsim::TcpModel tcp{};
  netsim::WorkloadGenerator workload;
  measurement::NdtProbe ndt{};
  measurement::DasuCollector dasu_collector;
  measurement::GatewayCollector gateway{};
  const faults::FaultPlan* faults{nullptr};

  explicit Toolkit(int epoch_year)
      : clock{epoch_year},
        diurnal{netsim::DiurnalParams{}, clock},
        workload{diurnal, tcp},
        dasu_collector{measurement::DasuCollectorParams{}, diurnal} {}

  /// View of the toolkit as the parallel pipeline's shared components.
  [[nodiscard]] measurement::PipelineToolkit pipeline() const {
    measurement::PipelineToolkit p;
    p.workload = &workload;
    p.dasu = &dasu_collector;
    p.gateway = &gateway;
    p.faults = faults;
    p.tcp = tcp;
    return p;
  }
};

/// Simulate one observation window and summarize it through a collector.
/// `ws` is the worker thread's reusable fluid-engine scratch state.
measurement::UsageSummary observe(const Toolkit& kit, const StudyConfig& config,
                                  const AccessLink& link,
                                  const netsim::WorkloadParams& wp, SimTime t0,
                                  double window_days, double bin_s, bool gateway,
                                  std::uint64_t stream_id, Rng& rng,
                                  netsim::FluidWorkspace& ws) {
  measurement::HouseholdTask task;
  task.stream_id = stream_id;  // keys this household's fault substream
  task.workload = wp;
  task.link = link;
  task.t0 = t0;
  task.bins = static_cast<std::size_t>(std::round(window_days * kDay / bin_s));
  task.bin_width_s = bin_s;
  task.collector = gateway ? measurement::CollectorKind::kGateway
                           : measurement::CollectorKind::kDasu;
  (void)config;
  return measurement::simulate_household(kit.pipeline(), task, rng, &ws).summary;
}

/// What one simulated household contributes to the dataset. Slots are
/// filled independently (one per user id) and merged in id order, so the
/// dataset is identical whatever the thread count.
struct UserOutcome {
  std::optional<UserRecord> record;
  std::optional<UpgradeObservation> upgrade;
  /// Set when the household threw instead of producing an outcome; the
  /// merge loop files it into StudyDataset::qc (index = user id).
  std::optional<core::QuarantinedRow> failure;
};

/// Wrap a per-user simulation body with failure isolation: an exception
/// becomes a quarantined outcome instead of killing the whole run.
/// `ws` is the calling worker's fluid workspace, forwarded to the body
/// (run() resets it on entry, so a mid-simulation throw leaves no state).
template <typename Body>
UserOutcome guarded_user(std::uint64_t user_id, netsim::FluidWorkspace& ws,
                         const Body& body) {
  try {
    return body(user_id, ws);
  } catch (const InjectedFault& e) {
    UserOutcome out;
    out.failure = core::QuarantinedRow{static_cast<std::size_t>(user_id),
                                       QuarantineReason::kInjectedFault,
                                       "user " + std::to_string(user_id), e.what()};
    return out;
  } catch (const std::exception& e) {
    UserOutcome out;
    out.failure = core::QuarantinedRow{static_cast<std::size_t>(user_id),
                                       QuarantineReason::kHouseholdFailure,
                                       "user " + std::to_string(user_id), e.what()};
    return out;
  }
}

}  // namespace

std::map<std::string, MarketSnapshot> StudyGenerator::build_markets(Rng& rng) const {
  OBS_SPAN("build_markets");
  std::map<std::string, MarketSnapshot> markets;
  for (const auto& country : world_.countries()) {
    Rng market_rng = rng.fork(std::hash<std::string>{}(country.code));
    MarketSnapshot snap;
    snap.country = &country;
    snap.catalog = PlanCatalog::generate(country, market_rng);

    // Probe households for willingness-to-pay calibration.
    std::vector<Household> probes;
    probes.reserve(256);
    for (int i = 0; i < 256; ++i) probes.push_back(sample_household(country, market_rng));
    {
      OBS_SPAN("market.calibrate", country.code);
      snap.choice = market::ChoiceModel::calibrated(country, snap.catalog, probes);
    }

    snap.access_price = snap.catalog.access_price().value_or(country.access_price);
    const auto fit = snap.catalog.price_capacity_fit();
    snap.price_capacity_r = fit.r;
    snap.upgrade_cost_per_mbps = fit.r > 0.4
                                     ? fit.slope
                                     : std::numeric_limits<double>::quiet_NaN();
    markets.emplace(country.code, std::move(snap));
  }
  return markets;
}

std::map<std::string, MarketSnapshot> StudyGenerator::build_markets() const {
  Rng root{config_.seed};
  return build_markets(root);
}

std::string ShardSpec::label() const {
  return "shard " + std::to_string(index) + " (" +
         (kind == Kind::kDasu ? "dasu " : "fcc ") + country_code + " y" +
         std::to_string(year_index) + ", users " + std::to_string(base_id) + ".." +
         std::to_string(base_id + n_users - 1) + ")";
}

void merge_shard_output(StudyDataset& ds, const ShardSpec& spec, ShardOutput&& out) {
  auto& records = spec.kind == ShardSpec::Kind::kDasu ? ds.dasu : ds.fcc;
  records.insert(records.end(), std::make_move_iterator(out.records.begin()),
                 std::make_move_iterator(out.records.end()));
  ds.upgrades.insert(ds.upgrades.end(),
                     std::make_move_iterator(out.upgrades.begin()),
                     std::make_move_iterator(out.upgrades.end()));
  ds.qc.merge(out.qc);
}

std::vector<ShardSpec> StudyGenerator::plan_shards(
    const std::map<std::string, MarketSnapshot>& markets) const {
  // This walk must mirror generate()'s exactly — same country order, same
  // empty-catalog skips (before any ids are consumed), same per-year user
  // counts — so shard user-id ranges tile [1, next_user_id) identically.
  OBS_SPAN("plan_shards");
  const int years = config_.last_year - config_.first_year + 1;
  std::vector<ShardSpec> shards;
  std::uint64_t next_user_id = 1;
  for (const auto& country : world_.countries()) {
    if (markets.at(country.code).catalog.empty()) continue;
    for (int yi = 0; yi < years; ++yi) {
      const double growth = std::pow(config_.annual_subscriber_growth, yi);
      const auto n_users = static_cast<std::size_t>(
          std::max(1.0, std::round(country.sample_weight * config_.population_scale *
                                   growth)));
      ShardSpec spec;
      spec.index = shards.size();
      spec.kind = ShardSpec::Kind::kDasu;
      spec.country_code = country.code;
      spec.year_index = yi;
      spec.base_id = next_user_id;
      spec.n_users = n_users;
      shards.push_back(std::move(spec));
      next_user_id += n_users;
    }
  }
  const auto& us = world_.contains("US") ? world_.at("US") : world_.countries().front();
  const auto per_year = std::max<std::size_t>(
      1, config_.fcc_users / static_cast<std::size_t>(years));
  for (int yi = 0; yi < years; ++yi) {
    ShardSpec spec;
    spec.index = shards.size();
    spec.kind = ShardSpec::Kind::kFcc;
    spec.country_code = us.code;
    spec.year_index = yi;
    spec.base_id = next_user_id;
    spec.n_users = per_year;
    shards.push_back(std::move(spec));
    next_user_id += per_year;
  }
  return shards;
}

namespace {

/// The shared parallel scaffold of simulate_shard: fan `simulate_user`
/// out over the shard's id range, polling `deadline` between households,
/// and fold the outcomes into `out` in id order.
template <typename SimulateUser>
void run_shard_users(const dataset::ShardSpec& spec, core::ThreadPool& pool,
                     const core::Deadline* deadline, const SimulateUser& simulate_user,
                     bool keep_upgrades, ShardOutput& out) {
  std::vector<UserOutcome> outcomes(spec.n_users);
  std::atomic<bool> overran{false};
  core::parallel_for(pool, spec.n_users, [&](std::size_t begin, std::size_t end) {
    // One fluid workspace per block: each worker simulates all its
    // households allocation-free after the first warms the buffers.
    netsim::FluidWorkspace ws;
    for (std::size_t u = begin; u < end; ++u) {
      if (deadline != nullptr && deadline->expired()) {
        // First block to notice throws (parallel_for rethrows it after
        // all blocks settle); the rest bail quietly to drain fast.
        if (!overran.exchange(true)) {
          throw DeadlineExceeded{spec.label() + " overran its " +
                                 std::to_string(deadline->seconds()) +
                                 " s deadline after " +
                                 std::to_string(deadline->elapsed_s()) + " s"};
        }
        return;
      }
      outcomes[u] = guarded_user(spec.base_id + u, ws, simulate_user);
    }
  });
  static obs::Counter& simulated =
      obs::Registry::instance().counter("gen.households_simulated");
  static obs::Counter& quarantined =
      obs::Registry::instance().counter("gen.households_quarantined");
  static obs::Counter& records =
      obs::Registry::instance().counter("gen.records_emitted");
  static obs::Counter& upgrades =
      obs::Registry::instance().counter("gen.upgrades_emitted");
  simulated.add(outcomes.size());
  for (auto& o : outcomes) {
    if (o.failure) {
      quarantined.add();
      out.qc.add(o.failure->index, o.failure->reason, o.failure->raw,
                 o.failure->detail);
      continue;
    }
    out.qc.note_admitted();
    if (o.record) {
      records.add();
      out.records.push_back(std::move(*o.record));
    }
    if (keep_upgrades && o.upgrade) {
      upgrades.add();
      out.upgrades.push_back(std::move(*o.upgrade));
    }
  }
}

}  // namespace

ShardOutput StudyGenerator::simulate_shard(
    const ShardSpec& spec, const std::map<std::string, MarketSnapshot>& markets,
    core::ThreadPool& pool, const core::Deadline* deadline) const {
  const std::string shard_label = spec.label();
  OBS_SPAN("simulate_shard", shard_label);
  static obs::Histogram& sim_ms =
      obs::Registry::instance().histogram("shard.sim_ms");
  const obs::ScopedTimer shard_timer{sim_ms};
  // Reconstruct the monolithic run's RNG lineage from scratch: fork() is
  // const, so the root/country streams a shard derives here are the very
  // streams generate()'s walk would have handed it.
  Rng root{config_.seed};
  Toolkit kit{config_.first_year};
  if (!config_.faults.empty()) kit.faults = &config_.faults;
  behavior::DemandModelParams demand_params;
  demand_params.capacity_effect = !config_.disable_capacity_effect;
  demand_params.pressure_effect = !config_.disable_pressure_effect;
  demand_params.quality_effect = !config_.disable_quality_effect;
  DemandModel demand{demand_params};
  if (config_.placebo) demand = demand.placebo();

  const int years = config_.last_year - config_.first_year + 1;
  const int yi = spec.year_index;
  // Center need growth on the middle study year so the pooled capacity
  // distribution matches the country anchors the choice model was
  // calibrated against.
  const double need_scale =
      std::pow(config_.annual_need_growth,
               static_cast<double>(yi) - static_cast<double>(years - 1) / 2.0);
  ShardOutput out;

  if (spec.kind == ShardSpec::Kind::kDasu) {
    const auto& country = world_.at(spec.country_code);
    const MarketSnapshot& snap = markets.at(spec.country_code);
    const int year = config_.first_year + yi;
    Rng country_rng = root.fork(0x5151 ^ std::hash<std::string>{}(country.code));

    // Each household depends only on its forked RNG substream (keyed
    // by user id) and read-only market/toolkit state, so the per-user
    // bodies shard freely across the pool; outcomes land in id-order
    // slots and are appended in that order.
    const auto simulate_user = [&](std::uint64_t user_id,
                                     netsim::FluidWorkspace& ws) -> UserOutcome {
        UserOutcome out;
        Rng rng = country_rng.fork(user_id);

        const Archetype archetype = ArchetypeMix::dasu().sample(rng);
        Household household = sample_household(country, rng, need_scale);
        const auto plan_opt = snap.choice.choose(household, snap.catalog);
        if (!plan_opt) return out;
        const ServicePlan plan = *plan_opt;
        const AccessLink link = make_link(country, plan, rng);

        SubscriberContext ctx;
        ctx.archetype = archetype;
        ctx.need_mbps = household.need_mbps;
        ctx.link = link;
        ctx.bt_user = behavior::traits_of(archetype).bt_sessions_per_day > 0.0;

        const double noise =
            std::exp(rng.normal(0.0, demand.params().intensity_log_sigma));
        const double phase = rng.normal(0.0, 1.5);
        auto wp = demand.workload_params(ctx, noise, phase);
        if (plan.monthly_cap) {
          behavior::apply_cap(wp, link, *plan.monthly_cap,
                              kit.workload.constants(), kit.tcp);
        }

        // A random full-day-aligned window inside this study year.
        const double year_base = static_cast<double>(yi) * kYear;
        const double max_day = kYear / kDay - config_.window_days - 1.0;
        const SimTime t0 =
            year_base + std::floor(rng.uniform(0.0, max_day)) * kDay;

        const auto summary = observe(kit, config_, link, wp, t0, config_.window_days,
                                     config_.dasu_bin_s, /*gateway=*/false, user_id,
                                     rng, ws);
        const auto probe = kit.ndt.characterize(link, rng);

        UserRecord rec;
        rec.user_id = user_id;
        rec.source = Source::kDasu;
        rec.country_code = country.code;
        rec.region = country.region;
        rec.year = year;
        rec.capacity = probe.download;
        rec.upload_capacity = probe.upload;
        rec.rtt_ms = probe.rtt_ms;
        rec.loss = probe.loss;
        rec.access_price = snap.access_price;
        rec.upgrade_cost_per_mbps = snap.upgrade_cost_per_mbps;
        rec.plan_price = plan.monthly_price;
        rec.plan_capacity = plan.download;
        rec.monthly_cap = plan.monthly_cap.value_or(0);
        rec.gdp_per_capita_ppp = country.gdp_per_capita_ppp;
        rec.usage = summary;
        rec.true_need_mbps = household.need_mbps;
        rec.archetype = archetype;
        rec.bt_user = ctx.bt_user;
        out.record = std::move(rec);

        // Upgrade follow-up: evolve this household one year forward and,
        // if it switched to a faster plan, observe it again on the new
        // service with the same idiosyncrasies.
        if (rng.bernoulli(config_.upgrade_follow_share)) {
          const market::UpgradeModel upgrades{
              snap.choice,
              market::UpgradePolicy{.annual_need_growth = config_.annual_need_growth}};
          Household future = household;
          const auto events = upgrades.evolve(future, plan, snap.catalog, year,
                                              config_.upgrade_horizon_years, rng);
          std::optional<ServicePlan> switched;
          int switch_year = year + 1;
          if (!events.empty() && events.front().is_upgrade()) {
            switched = events.front().new_plan;
            switch_year = events.front().year;
          } else if (rng.bernoulli(config_.exogenous_upgrade_share *
                                   std::clamp(2.0 / std::sqrt(plan.download.mbps()),
                                              0.25, 1.0))) {
            // Slow services churn more (they are the ones promotions and
            // line re-grades target), which also matches the paper's
            // switcher population: its median "slow network" usage sits
            // in the hundred-kbps range.
            // Exogenous one-tier bump: the cheapest wireline plan strictly
            // faster than the current one (moving house, ISP promotion...).
            const ServicePlan* next = nullptr;
            for (const auto& candidate : snap.catalog.plans()) {
              if (candidate.download <= plan.download) continue;
              if (candidate.tech == market::AccessTech::kFixedWireless ||
                  candidate.tech == market::AccessTech::kSatellite ||
                  candidate.dedicated) {
                continue;
              }
              const bool better =
                  next == nullptr || candidate.download < next->download ||
                  (candidate.download == next->download &&
                   candidate.monthly_price < next->monthly_price);
              if (better) next = &candidate;
            }
            if (next != nullptr) switched = *next;
          }
          if (switched) {
            const ServicePlan& new_plan = *switched;
            AccessLink new_link = link;  // same line quality, faster service
            new_link.down = new_plan.download;
            new_link.up = new_plan.upload;

            SubscriberContext after_ctx = ctx;
            after_ctx.need_mbps = future.need_mbps;
            after_ctx.link = new_link;
            const auto after_wp = demand.workload_params(after_ctx, noise, phase);
            // Also re-observe "before" behavior with the grown need so the
            // pair isolates the capacity change from need growth.
            SubscriberContext before_ctx = after_ctx;
            before_ctx.link = link;
            const auto before_wp = demand.workload_params(before_ctx, noise, phase);

            const SimTime t_before =
                t0 + kYear;  // same point in the following year
            const SimTime t_after = t_before + 14.0 * kDay;
            UpgradeObservation obs;
            obs.user_id = user_id;
            obs.country_code = country.code;
            obs.year = switch_year;
            obs.old_capacity = plan.download;
            obs.new_capacity = new_plan.download;
            obs.old_price = plan.monthly_price;
            obs.new_price = new_plan.monthly_price;
            obs.before = observe(kit, config_, link, before_wp, t_before,
                                 config_.window_days, config_.dasu_bin_s,
                                 /*gateway=*/false, user_id, rng, ws);
            obs.after = observe(kit, config_, new_link, after_wp, t_after,
                                config_.window_days, config_.dasu_bin_s,
                                /*gateway=*/false, user_id, rng, ws);
            out.upgrade = std::move(obs);
          }
        }
        return out;
      };

    run_shard_users(spec, pool, deadline, simulate_user, /*keep_upgrades=*/true, out);
    log_debug("generated ", country.code, " year ", year, ": ", spec.n_users,
              " users");
  } else {
    // FCC panel: US households on gateway instruments, spread across years.
    const auto& us = world_.at(spec.country_code);
    const MarketSnapshot& snap = markets.at(us.code);
    Rng fcc_rng = root.fork(0xFCC);
    const auto simulate_user = [&](std::uint64_t user_id,
                                     netsim::FluidWorkspace& ws) -> UserOutcome {
        UserOutcome out;
        Rng rng = fcc_rng.fork(user_id);
        const Archetype archetype = ArchetypeMix::fcc().sample(rng);
        Household household = sample_household(us, rng, need_scale);
        const auto plan_opt = snap.choice.choose(household, snap.catalog);
        if (!plan_opt) return out;
        const ServicePlan plan = *plan_opt;
        const AccessLink link = make_link(us, plan, rng);

        SubscriberContext ctx;
        ctx.archetype = archetype;
        ctx.need_mbps = household.need_mbps;
        ctx.link = link;
        ctx.bt_user = behavior::traits_of(archetype).bt_sessions_per_day > 0.0;
        auto wp = demand.workload_params(ctx, rng);
        if (plan.monthly_cap) {
          behavior::apply_cap(wp, link, *plan.monthly_cap,
                              kit.workload.constants(), kit.tcp);
        }

        const double year_base = static_cast<double>(yi) * kYear;
        const double max_day = kYear / kDay - config_.fcc_window_days - 1.0;
        const SimTime t0 = year_base + std::floor(rng.uniform(0.0, max_day)) * kDay;
        const auto summary =
            observe(kit, config_, link, wp, t0, config_.fcc_window_days,
                    config_.dasu_bin_s, /*gateway=*/true, user_id, rng, ws);
        const auto probe = kit.ndt.characterize(link, rng);

        UserRecord rec;
        rec.user_id = user_id;
        rec.source = Source::kFcc;
        rec.country_code = us.code;
        rec.region = us.region;
        rec.year = config_.first_year + yi;
        rec.capacity = probe.download;
        rec.upload_capacity = probe.upload;
        rec.rtt_ms = probe.rtt_ms;
        rec.loss = probe.loss;
        rec.access_price = snap.access_price;
        rec.upgrade_cost_per_mbps = snap.upgrade_cost_per_mbps;
        rec.plan_price = plan.monthly_price;
        rec.plan_capacity = plan.download;
        rec.monthly_cap = plan.monthly_cap.value_or(0);
        rec.gdp_per_capita_ppp = us.gdp_per_capita_ppp;
        rec.usage = summary;
        rec.true_need_mbps = household.need_mbps;
        rec.archetype = archetype;
        rec.bt_user = ctx.bt_user;
        out.record = std::move(rec);
        return out;
      };

    run_shard_users(spec, pool, deadline, simulate_user, /*keep_upgrades=*/false,
                    out);
  }
  return out;
}

StudyDataset StudyGenerator::generate() const {
  OBS_SPAN("dataset.generate");
  StudyDataset ds;
  ds.config = config_;
  ds.markets = build_markets();

  if (!config_.faults.empty()) {
    log_info("fault injection active: ", config_.faults.summary());
  }
  core::ThreadPool pool{config_.threads};
  log_debug("simulating households on ", pool.size(), " threads");

  for (const ShardSpec& spec : plan_shards(ds.markets)) {
    merge_shard_output(ds, spec, simulate_shard(spec, ds.markets, pool));
  }

  if (!ds.qc.empty()) {
    log_warn("generation quarantine: ", ds.qc.summary());
    if (ds.qc.failure_rate() > config_.max_household_failure_rate) {
      throw AnalysisError{"StudyGenerator: household failure rate " +
                          std::to_string(ds.qc.failure_rate()) + " exceeds max " +
                          std::to_string(config_.max_household_failure_rate) +
                          " (" + ds.qc.summary() + ")"};
    }
  }

  log_info("dataset: ", ds.dasu.size(), " dasu users, ", ds.fcc.size(),
           " fcc users, ", ds.upgrades.size(), " upgrade pairs");
  return ds;
}

}  // namespace bblab::dataset
