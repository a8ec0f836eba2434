// Study dataset generation: the orchestrator that stands in for 23 months
// of global measurement.
//
// For each country the generator (1) synthesizes the retail plan catalog,
// (2) calibrates a choice model to the market, (3) draws households and
// lets them pick plans, (4) assigns line quality, (5) synthesizes traffic
// through the fluid simulator, and (6) observes it through the Dasu or
// FCC instruments. A subset of households additionally evolves through
// the upgrade model and is observed before and after switching — the
// within-user natural experiment of §3.2. Cross-sections are generated
// for each study year with growing populations and needs but a
// year-invariant demand model (the §4 ground truth).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "behavior/demand.h"
#include "core/quarantine.h"
#include "core/rng.h"
#include "dataset/user_record.h"
#include "faults/fault_plan.h"
#include "market/catalog.h"
#include "market/choice.h"
#include "market/country.h"
#include "market/upgrade.h"
#include "measurement/collectors.h"
#include "measurement/ndt.h"
#include "netsim/workload.h"

namespace bblab::core {
class Deadline;
class Hasher;
class ThreadPool;
}

namespace bblab::dataset {

/// Per-country market state shared by generation and analysis.
struct MarketSnapshot {
  const market::CountryProfile* country{nullptr};
  market::PlanCatalog catalog;
  market::ChoiceModel choice{1.0};
  MoneyPpp access_price;             ///< cheapest >= 1 Mbps
  double upgrade_cost_per_mbps{0.0}; ///< regression slope (NaN if r <= 0.4)
  double price_capacity_r{0.0};      ///< Pearson r of price vs capacity
};

struct StudyConfig {
  std::uint64_t seed{42};
  /// Worker threads for per-household simulation (0 = one per hardware
  /// thread). The dataset is bit-identical for every value: households
  /// draw from per-user RNG substreams and results merge in user order.
  std::size_t threads{0};
  /// Scales every country's vantage-point count (1.0 ~ 12k Dasu users).
  double population_scale{1.0};
  /// Observation window per user-year.
  double window_days{3.0};
  double dasu_bin_s{30.0};
  /// FCC panel size (US gateways) and window.
  std::size_t fcc_users{800};
  double fcc_window_days{7.0};
  /// Study years (cross-section per year).
  int first_year{2011};
  int last_year{2013};
  /// Fraction of Dasu users also observed after a service change.
  double upgrade_follow_share{0.35};
  /// Years of market evolution a followed user is given to switch.
  int upgrade_horizon_years{2};
  /// When the choice model produced no upgrade for a followed user, the
  /// probability that an exogenous event (moving house, an ISP promotion,
  /// a line re-grade) bumps them one tier anyway. Exogenous switches are
  /// as-good-as-random treatment assignment — exactly what the paper's
  /// natural-experiment design wants to exploit.
  double exogenous_upgrade_share{0.5};
  /// Population-level annual growth of subscriber counts.
  double annual_subscriber_growth{1.18};
  /// Annual growth of household needs (drives tier migration, not
  /// within-tier demand).
  double annual_need_growth{1.32};
  /// Fault-injection plan applied during generation (empty = clean run).
  /// Series faults pass through the measurement pipeline; a household
  /// selected for hard failure is quarantined into StudyDataset::qc.
  faults::FaultPlan faults{};
  /// Abort generation (AnalysisError) when more than this fraction of
  /// simulated households fails outright.
  double max_household_failure_rate{0.02};
  /// Coverage floor the analysis layer applies before computing
  /// statistics (see CoverageRule).
  CoverageRule coverage{};
  /// Generate with all causal effects disabled (falsification runs).
  bool placebo{false};
  /// Fine-grained ablation switches (ignored when `placebo` is set, which
  /// disables everything).
  bool disable_capacity_effect{false};
  bool disable_pressure_effect{false};
  bool disable_quality_effect{false};

  /// Feed every generation-relevant knob into a fingerprint hasher — the
  /// simulation cache's view of this config. `threads` is deliberately
  /// excluded: the dataset is bit-identical at any thread count (PR 1's
  /// guarantee), so runs differing only in parallelism share one cache
  /// entry. `coverage` IS included even though it is applied downstream:
  /// it travels inside StudyDataset::config, so a snapshot must not be
  /// shared between runs that would disagree about it.
  void fingerprint(core::Hasher& hasher) const;
};

/// Everything the analysis layer consumes.
struct StudyDataset {
  StudyConfig config;
  std::vector<UserRecord> dasu;          ///< global end-host records
  std::vector<UserRecord> fcc;           ///< US gateway records
  std::vector<UpgradeObservation> upgrades;
  std::map<std::string, MarketSnapshot> markets;  ///< by country code
  /// Households quarantined during generation (index = user id).
  core::QuarantineReport qc;
};

/// One independently simulatable unit of a study run: all households of
/// one (country, study-year) cross-section on one instrument. Shards are
/// the unit of reuse (ShardStore) and of deadlines — each depends only on
/// config.seed and read-only market state (per-user RNG substreams are
/// forked from a reconstructed root, never from a shared mutable stream),
/// so any subset can be re-simulated in any order, in any process, and
/// merged by `index` into a dataset byte-identical to the monolithic run.
struct ShardSpec {
  enum class Kind : std::uint8_t { kDasu, kFcc };

  std::size_t index{0};       ///< merge position (also quarantine index)
  Kind kind{Kind::kDasu};
  std::string country_code;
  int year_index{0};          ///< 0-based offset from config.first_year
  std::uint64_t base_id{1};   ///< first user id in this shard
  std::size_t n_users{0};

  /// e.g. "shard 7 (dasu DE y1, users 301..420)".
  [[nodiscard]] std::string label() const;
};

/// What one simulated shard contributes to the dataset.
struct ShardOutput {
  std::vector<UserRecord> records;  ///< dasu or fcc per ShardSpec::kind
  std::vector<UpgradeObservation> upgrades;
  core::QuarantineReport qc;
};

/// Append `out` to the dataset in the slot `spec` describes. Calling this
/// for every planned shard in index order reproduces generate() exactly.
void merge_shard_output(StudyDataset& ds, const ShardSpec& spec, ShardOutput&& out);

/// Persistent shard outputs that generate() reuses across runs.
/// store::ArtifactCache is the implementation; the interface lives here so
/// the generator needs no storage code.
class ShardStore {
 public:
  /// The output an earlier run of (config, world) published for `spec`,
  /// or nullopt when there is none that verifies.
  [[nodiscard]] virtual std::optional<ShardOutput> load(
      const StudyConfig& config, const market::World& world,
      const ShardSpec& spec) const = 0;

  /// Offer a freshly simulated shard for reuse. Failing to publish is not
  /// an error of the run: the implementation logs and counts it, and the
  /// shard is merged all the same.
  virtual void publish(const StudyConfig& config, const market::World& world,
                       const ShardSpec& spec, const ShardOutput& out) const = 0;

 protected:
  /// Not owned through this interface, so not deleted through it.
  ~ShardStore() = default;
};

struct GenerateOptions {
  /// Reuse and publish shards here; null = simulate every shard, no I/O.
  const ShardStore* store{nullptr};
  /// Per-shard wall-clock budget in seconds; <= 0 disables. An overrun
  /// shard is quarantined whole (kDeadlineExceeded, index = shard index)
  /// and the dataset is partial.
  double shard_deadline_s{0.0};
};

class StudyGenerator {
 public:
  StudyGenerator(const market::World& world, StudyConfig config);

  /// Generate the full dataset: every planned shard in index order, each
  /// merged from a verified store hit or simulated (and then published).
  /// Deterministic in config.seed; a run with no quarantined shard is
  /// byte-identical with or without a store, at any thread count.
  [[nodiscard]] StudyDataset generate(const GenerateOptions& options = {}) const;

  /// Build only the market snapshots, one country per pool task. Each
  /// country forks its own stream from a root seeded with config.seed, so
  /// the result is bit-identical at any pool size. When countries fail,
  /// the error of the first in world order is rethrown (an
  /// InvalidArgument prefixed with "market <code>: "), as a serial walk
  /// would have raised it.
  [[nodiscard]] std::map<std::string, MarketSnapshot> build_markets(
      core::ThreadPool& pool) const;
  /// Same, on a pool of config.threads workers of its own.
  [[nodiscard]] std::map<std::string, MarketSnapshot> build_markets() const;

  /// Deterministically split the run into shards: one per non-empty
  /// (country, year) Dasu cross-section in world order, then one per FCC
  /// panel year. User-id ranges match the monolithic generate() walk.
  [[nodiscard]] std::vector<ShardSpec> plan_shards(
      const std::map<std::string, MarketSnapshot>& markets) const;

  /// Simulate one shard. Depends only on (config, world, markets) — no
  /// state is shared between calls, so shards may run in any order or
  /// process. If `deadline` is set it is polled between households and
  /// overruns throw core::DeadlineExceeded (the caller quarantines the
  /// shard; partial output is discarded).
  [[nodiscard]] ShardOutput simulate_shard(
      const ShardSpec& spec, const std::map<std::string, MarketSnapshot>& markets,
      core::ThreadPool& pool, const core::Deadline* deadline = nullptr) const;

 private:
  const market::World& world_;
  StudyConfig config_;
};

}  // namespace bblab::dataset
