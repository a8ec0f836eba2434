// Shard-level reuse through the artifact cache: StudyGenerator::generate()
// with a store (store::ArtifactCache) must land byte-identical to a plain
// run whether it starts cold, warm, after a crash at any filesystem
// operation, or over segments that do not belong to it. The
// `RunCheckpointed` cases are runs checkpointed shard by shard into the
// store.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "core/error.h"
#include "core/thread_pool.h"
#include "faults/fault_plan.h"
#include "faults/fs_faults.h"
#include "obs/metrics.h"
#include "store/bbs.h"
#include "store/cache.h"
#include "store/fingerprint.h"

namespace bblab::store {
namespace {

dataset::StudyConfig tiny_config() {
  dataset::StudyConfig config;
  config.seed = 99;
  config.population_scale = 0.01;
  config.window_days = 0.25;
  config.fcc_users = 40;
  config.fcc_window_days = 0.5;
  config.first_year = 2011;
  config.last_year = 2012;
  config.upgrade_follow_share = 0.3;
  return config;
}

// StudyGenerator holds the world by reference, so hand out one with
// static storage duration rather than a temporary.
const market::World& tiny_world() {
  static const market::World world = [] {
    const std::vector<std::string> codes{"US", "JP"};
    return market::World::builtin().subset(codes);
  }();
  return world;
}

const dataset::StudyDataset& reference_dataset() {
  static const dataset::StudyDataset ds = [] {
    return dataset::StudyGenerator{tiny_world(), tiny_config()}.generate();
  }();
  return ds;
}

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path{::testing::TempDir()} /
                   (name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

/// generate() through `cache`, optionally under a shard deadline.
dataset::StudyDataset run(const ArtifactCache& cache,
                          const dataset::StudyConfig& config = tiny_config(),
                          double deadline_s = 0.0) {
  return dataset::StudyGenerator{tiny_world(), config}.generate(
      {.store = &cache, .shard_deadline_s = deadline_s});
}

std::uint64_t counter(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

/// Counter deltas across one scope, for the shards.* family.
struct ShardCounts {
  std::uint64_t planned = counter("shards.planned");
  std::uint64_t reused = counter("shards.reused");
  std::uint64_t simulated = counter("shards.simulated");
  std::uint64_t quarantined = counter("shards.quarantined");
  std::uint64_t published = counter("shards.published");
  std::uint64_t publish_failed = counter("shards.publish_failed");
  std::uint64_t rejected = counter("shards.rejected");

  [[nodiscard]] ShardCounts since(const ShardCounts& before) const {
    ShardCounts d = *this;
    d.planned -= before.planned;
    d.reused -= before.reused;
    d.simulated -= before.simulated;
    d.quarantined -= before.quarantined;
    d.published -= before.published;
    d.publish_failed -= before.publish_failed;
    d.rejected -= before.rejected;
    return d;
  }
};

core::RetryPolicy fast_retry(int attempts) {
  core::RetryPolicy retry;
  retry.max_attempts = attempts;
  retry.base_delay_ms = 0.01;  // keep the tests fast
  return retry;
}

TEST(PlanShards, TilesTheIdSpaceExactly) {
  dataset::StudyGenerator gen{tiny_world(), tiny_config()};
  const auto markets = gen.build_markets();
  const auto shards = gen.plan_shards(markets);
  ASSERT_FALSE(shards.empty());
  std::uint64_t next_id = 1;  // user ids start at 1 and tile contiguously
  bool seen_fcc = false;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const auto& s = shards[i];
    EXPECT_EQ(s.index, i);
    EXPECT_GT(s.n_users, 0u);
    EXPECT_EQ(s.base_id, next_id) << s.label();
    next_id += s.n_users;
    if (s.kind == dataset::ShardSpec::Kind::kFcc) {
      seen_fcc = true;
    } else {
      EXPECT_FALSE(seen_fcc) << "dasu shards must precede fcc shards";
    }
  }
  EXPECT_TRUE(seen_fcc);
}

TEST(SimulateShard, MergeReproducesGenerate) {
  dataset::StudyGenerator gen{tiny_world(), tiny_config()};
  const auto markets = gen.build_markets();
  const auto shards = gen.plan_shards(markets);
  core::ThreadPool pool{2};
  dataset::StudyDataset ds;
  ds.config = tiny_config();
  ds.markets = markets;
  for (const auto& spec : shards) {
    dataset::merge_shard_output(ds, spec, gen.simulate_shard(spec, markets, pool));
  }
  EXPECT_EQ(content_hash(ds), content_hash(reference_dataset()));
}

TEST(Generate, WithoutAStoreTouchesNoFilesystem) {
  faults::FaultFileSystem counting{faults::FsFaultPlan{}};
  core::FileSystem::set_instance(&counting);
  const std::uint64_t read_before = counter("fs.files_read");
  const std::uint64_t written_before = counter("fs.files_written");
  const auto ds = dataset::StudyGenerator{tiny_world(), tiny_config()}.generate();
  core::FileSystem::set_instance(nullptr);
  EXPECT_EQ(counting.ops(), 0u);
  EXPECT_EQ(counter("fs.files_read"), read_before);
  EXPECT_EQ(counter("fs.files_written"), written_before);
  EXPECT_EQ(content_hash(ds), content_hash(reference_dataset()));
}

/// Counts this process's threads whenever generate() asks it for a shard.
class ThreadCountingStore final : public dataset::ShardStore {
 public:
  std::optional<dataset::ShardOutput> load(const dataset::StudyConfig&,
                                           const market::World&,
                                           const dataset::ShardSpec&) const override {
    std::size_t n = 0;
    for (const auto& t : std::filesystem::directory_iterator{"/proc/self/task"}) {
      (void)t;
      ++n;
    }
    threads = n;
    return std::nullopt;
  }
  void publish(const dataset::StudyConfig&, const market::World&,
               const dataset::ShardSpec&, const dataset::ShardOutput&) const override {}
  mutable std::size_t threads{0};
};

TEST(Generate, WatchdogThreadRunsOnlyUnderADeadline) {
  if (!std::filesystem::is_directory("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task to count threads";
  }
  auto config = tiny_config();
  config.threads = 2;
  const dataset::StudyGenerator gen{tiny_world(), config};
  ThreadCountingStore store;
  (void)gen.generate({.store = &store, .shard_deadline_s = 0.0});
  const std::size_t without = store.threads;
  (void)gen.generate({.store = &store, .shard_deadline_s = 3600.0});
  EXPECT_EQ(store.threads, without + 1);
}

TEST(RunCheckpointed, CleanRunMatchesGenerateByteForByte) {
  const auto reference = content_hash(reference_dataset());
  const ArtifactCache cache{fresh_dir("store_clean")};
  const ShardCounts cold_before;
  const auto cold = run(cache);
  const ShardCounts cold_delta = ShardCounts{}.since(cold_before);
  EXPECT_GT(cold_delta.planned, 0u);
  EXPECT_EQ(cold_delta.reused, 0u);
  EXPECT_EQ(cold_delta.published, cold_delta.planned);
  EXPECT_EQ(content_hash(cold), reference);

  // A warm run re-simulates nothing.
  const ShardCounts warm_before;
  const auto warm = run(cache);
  const ShardCounts warm_delta = ShardCounts{}.since(warm_before);
  EXPECT_EQ(warm_delta.reused, warm_delta.planned);
  EXPECT_EQ(warm_delta.simulated, 0u);
  EXPECT_EQ(content_hash(warm), reference);
}

TEST(RunCheckpointed, FreshRunIgnoresForeignCheckpoint) {
  const ArtifactCache cache{fresh_dir("store_foreign")};
  (void)run(cache);

  // Same root, different config: the old segments must not leak in.
  auto other = tiny_config();
  other.seed = 100;
  const ShardCounts before;
  const auto ds = run(cache, other);
  EXPECT_EQ(ShardCounts{}.since(before).reused, 0u);
  const auto direct = dataset::StudyGenerator{tiny_world(), other}.generate();
  EXPECT_EQ(content_hash(ds), content_hash(direct));
  EXPECT_EQ(cache.list().size(), 2u);
}

TEST(ShardStore, SegmentFromAnotherRunOrShardIsRejectedAndResimulated) {
  const auto reference = content_hash(reference_dataset());
  const ArtifactCache cache{fresh_dir("store_misfiled")};
  auto other = tiny_config();
  other.seed = 100;
  (void)run(cache);
  (void)run(cache, other);
  const Fingerprint key = dataset_fingerprint(tiny_config(), tiny_world());
  const Fingerprint other_key = dataset_fingerprint(other, tiny_world());

  // Healthy segments in the wrong slots: shard 1 of another run, and
  // shard 0 of this run in shard 2's place.
  const auto misfile = [](const std::filesystem::path& from,
                          const std::filesystem::path& to) {
    std::filesystem::copy_file(from, to,
                               std::filesystem::copy_options::overwrite_existing);
  };
  misfile(cache.segment_path(other_key, 1), cache.segment_path(key, 1));
  misfile(cache.segment_path(key, 0), cache.segment_path(key, 2));

  const ShardCounts before;
  const auto ds = run(cache);
  const ShardCounts delta = ShardCounts{}.since(before);
  EXPECT_EQ(delta.rejected, 2u);
  EXPECT_EQ(delta.simulated, 2u);
  EXPECT_EQ(delta.published, 2u);
  EXPECT_EQ(content_hash(ds), reference);

  // The re-simulated shards were published into their own slots.
  const ShardCounts healed_before;
  EXPECT_EQ(content_hash(run(cache)), reference);
  EXPECT_EQ(ShardCounts{}.since(healed_before).rejected, 0u);
}

TEST(ShardStore, CorruptSegmentIsRemovedAndResimulated) {
  const auto reference = content_hash(reference_dataset());
  const ArtifactCache cache{fresh_dir("store_corrupt")};
  (void)run(cache);
  const auto path =
      cache.segment_path(dataset_fingerprint(tiny_config(), tiny_world()), 0);
  {
    std::fstream f{path, std::ios::in | std::ios::out | std::ios::binary};
    f.seekg(40);
    char c{};
    f.get(c);
    f.seekp(40);
    f.put(static_cast<char>(c ^ 0x10));
  }
  const ShardCounts before;
  EXPECT_EQ(content_hash(run(cache)), reference);
  const ShardCounts delta = ShardCounts{}.since(before);
  EXPECT_EQ(delta.rejected, 1u);
  EXPECT_EQ(delta.simulated, 1u);
  EXPECT_TRUE(std::filesystem::exists(path));  // republished, healthy
}

// The core crash-safety claim: kill the run at EVERY mutating filesystem
// operation in turn, run again, and demand the byte-identical dataset.
// The crash fault fires mid-operation (half-written file / skipped
// rename), so this also exercises read-back verification and rejection.
TEST(RunCheckpointed, CrashAtEveryOpThenResumeIsByteIdentical) {
  const auto reference = content_hash(reference_dataset());

  // First, count the ops of an uninterrupted run.
  faults::FaultFileSystem counting{faults::FsFaultPlan{}};
  (void)run(ArtifactCache{fresh_dir("store_crash_count"), {}, &counting});
  const auto total_ops = counting.ops();
  ASSERT_GT(total_ops, 10u);

  for (std::uint64_t k = 0; k < total_ops; ++k) {
    const auto root = fresh_dir("store_crash_" + std::to_string(k));
    faults::FaultFileSystem fs{
        faults::FsFaultPlan::parse("crash@" + std::to_string(k))};
    bool crashed = false;
    try {
      (void)run(ArtifactCache{root, {}, &fs});
    } catch (const faults::InjectedCrash&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed) << "op " << k << " of " << total_ops
                         << " never executed its injected crash";

    faults::FaultFileSystem clean{faults::FsFaultPlan{}};
    const ShardCounts before;
    const auto resumed = run(ArtifactCache{root, {}, &clean});
    EXPECT_EQ(ShardCounts{}.since(before).quarantined, 0u);
    EXPECT_EQ(content_hash(resumed), reference)
        << "resume after crash at op " << k << " diverged";
    std::filesystem::remove_all(root);
  }
}

TEST(RunCheckpointed, TransientFaultsRecoverWithinBoundedRetries) {
  const auto reference = content_hash(reference_dataset());
  // Each shard publish costs 3 mutating ops (mkdir -p, tmp write,
  // rename); eio@4 lands on shard 1's segment write. Two consecutive
  // failures still fit inside the default 4-attempt policy.
  faults::FaultFileSystem fs{faults::FsFaultPlan::parse("eio@4x2")};
  const ArtifactCache cache{fresh_dir("store_eio"), fast_retry(4), &fs};
  const ShardCounts before;
  const auto ds = run(cache);
  const ShardCounts delta = ShardCounts{}.since(before);
  EXPECT_EQ(delta.published, delta.planned);
  EXPECT_EQ(delta.publish_failed, 0u);
  EXPECT_EQ(content_hash(ds), reference);
}

TEST(RunCheckpointed, ExhaustedPublishStillMergesAndNextRunHeals) {
  const auto reference = content_hash(reference_dataset());
  // Four EIO hits from op 4 outlast a 3-attempt policy on shard 1 (a
  // failed write also burns a firing on its tmp cleanup): the publish
  // gives up, yet the shard is merged, so the run is complete and clean.
  faults::FaultFileSystem fs{faults::FsFaultPlan::parse("eio@4x4")};
  const auto root = fresh_dir("store_exhaust");
  const ShardCounts before;
  const auto ds = run(ArtifactCache{root, fast_retry(3), &fs});
  const ShardCounts delta = ShardCounts{}.since(before);
  EXPECT_EQ(delta.publish_failed, 1u);
  EXPECT_EQ(delta.published + 1, delta.planned);
  EXPECT_EQ(delta.quarantined, 0u);
  EXPECT_TRUE(ds.qc.empty());
  EXPECT_EQ(content_hash(ds), reference);

  // A later clean run re-simulates only the shard that was not published.
  const ShardCounts heal_before;
  const auto healed = run(ArtifactCache{root, fast_retry(3)});
  const ShardCounts heal = ShardCounts{}.since(heal_before);
  EXPECT_EQ(heal.simulated, 1u);
  EXPECT_EQ(heal.reused + 1, heal.planned);
  EXPECT_EQ(content_hash(healed), reference);
}

TEST(RunCheckpointed, ImpossibleDeadlineQuarantinesEveryShard) {
  const auto reference = content_hash(reference_dataset());
  const ArtifactCache cache{fresh_dir("store_deadline")};
  const ShardCounts before;
  const auto ds = run(cache, tiny_config(), 1e-9);
  const ShardCounts delta = ShardCounts{}.since(before);
  EXPECT_EQ(delta.quarantined, delta.planned);
  EXPECT_EQ(delta.published, 0u);
  EXPECT_EQ(ds.qc.count(QuarantineReason::kDeadlineExceeded), delta.planned);
  EXPECT_TRUE(ds.dasu.empty());
  EXPECT_TRUE(ds.fcc.empty());

  // Deadlines off again: the same cache heals to the full dataset.
  EXPECT_EQ(content_hash(run(cache)), reference);
}

TEST(RunCheckpointed, FailureTripwireCountsOnlyHouseholdRows) {
  // A sick simulation aborts a stored run as it aborts a plain one.
  auto sick = tiny_config();
  sick.faults = faults::FaultPlan::parse("fail=0.9");
  sick.max_household_failure_rate = 0.05;
  EXPECT_THROW((void)run(ArtifactCache{fresh_dir("store_sick")}, sick), AnalysisError);

  // A shard lost to its deadline is a run-level event: even a zero
  // tolerance for failed households lets such a run complete.
  auto strict = tiny_config();
  strict.max_household_failure_rate = 0.0;
  const auto late = run(ArtifactCache{fresh_dir("store_strict_deadline")}, strict, 1e-9);
  EXPECT_FALSE(late.qc.empty());
  EXPECT_EQ(late.qc.count(QuarantineReason::kDeadlineExceeded), late.qc.rows.size());

  // A failed publish files no row at all.
  faults::FaultFileSystem fs{faults::FsFaultPlan::parse("eio@4x4")};
  const auto io = run(ArtifactCache{fresh_dir("store_strict_io"), fast_retry(3), &fs},
                      strict);
  EXPECT_TRUE(io.qc.rows.empty());
}

}  // namespace
}  // namespace bblab::store
