#include "store/checkpoint.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "core/error.h"
#include "core/thread_pool.h"
#include "core/watchdog.h"
#include "faults/fault_plan.h"
#include "faults/fs_faults.h"
#include "obs/metrics.h"
#include "store/bbs.h"

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
  const auto dir = std::filesystem::path{::testing::TempDir()} / name;
  std::filesystem::remove_all(dir);
  return dir;
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

TEST(RunCheckpointed, CleanRunMatchesGenerateByteForByte) {
  CheckpointOptions opts;
  opts.dir = fresh_dir("ckpt_clean");
  const auto run = run_checkpointed(tiny_world(), tiny_config(), opts);
  EXPECT_FALSE(run.degraded());
  EXPECT_EQ(run.shards_reused, 0u);
  EXPECT_GT(run.shards_total, 0u);
  EXPECT_EQ(content_hash(run.dataset), content_hash(reference_dataset()));

  // Resuming over a complete checkpoint re-simulates nothing.
  opts.resume = true;
  const auto resumed = run_checkpointed(tiny_world(), tiny_config(), opts);
  EXPECT_EQ(resumed.shards_reused, resumed.shards_total);
  EXPECT_EQ(content_hash(resumed.dataset), content_hash(reference_dataset()));
}

TEST(RunCheckpointed, ManifestShardCountMustBeOneWholeToken) {
  // A MANIFEST whose shard count is not one whole decimal token is
  // unreadable: resume falls back to salvaging every segment (and
  // rewrites the manifest) instead of trusting the commit log.
  static obs::Counter& salvaged =
      obs::Registry::instance().counter("checkpoint.segments_salvaged");
  for (const char* count_prefix : {" ", "+", "0x"}) {
    CheckpointOptions opts;
    opts.dir = fresh_dir("ckpt_manifest_count");
    const auto run = run_checkpointed(tiny_world(), tiny_config(), opts);
    const auto manifest = opts.dir / "MANIFEST";
    std::string text;
    {
      std::ifstream in{manifest};
      text.assign(std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{});
    }
    const std::string line = "\nshards " + std::to_string(run.shards_total) + "\n";
    const std::size_t at = text.find(line);
    ASSERT_NE(at, std::string::npos);
    text.insert(at + 8, count_prefix);
    std::ofstream{manifest, std::ios::trunc} << text;

    opts.resume = true;
    const std::uint64_t before = salvaged.value();
    const auto resumed = run_checkpointed(tiny_world(), tiny_config(), opts);
    EXPECT_EQ(salvaged.value() - before, run.shards_total) << "prefix '" << count_prefix << "'";
    EXPECT_EQ(resumed.shards_reused, resumed.shards_total);
    EXPECT_EQ(content_hash(resumed.dataset), content_hash(reference_dataset()));
  }
}

TEST(RunCheckpointed, FreshRunIgnoresForeignCheckpoint) {
  CheckpointOptions opts;
  opts.dir = fresh_dir("ckpt_foreign");
  (void)run_checkpointed(tiny_world(), tiny_config(), opts);

  // Same directory, different config: the old segments must not leak in.
  auto other = tiny_config();
  other.seed = 100;
  opts.resume = true;
  const auto run = run_checkpointed(tiny_world(), other, opts);
  EXPECT_EQ(run.shards_reused, 0u);
  EXPECT_FALSE(run.degraded());
  const auto direct = dataset::StudyGenerator{tiny_world(), other}.generate();
  EXPECT_EQ(content_hash(run.dataset), content_hash(direct));
}

// The core crash-safety claim: kill the run at EVERY mutating filesystem
// operation in turn, resume, and demand the byte-identical dataset. The
// crash fault fires mid-operation (half-written file / skipped rename),
// so this also exercises salvage and read-back verification.
TEST(RunCheckpointed, CrashAtEveryOpThenResumeIsByteIdentical) {
  const auto reference = content_hash(reference_dataset());

  // First, count the ops of an uninterrupted run.
  faults::FaultFileSystem counter{faults::FsFaultPlan{}};
  CheckpointOptions opts;
  opts.dir = fresh_dir("ckpt_crash_count");
  opts.fs = &counter;
  (void)run_checkpointed(tiny_world(), tiny_config(), opts);
  const auto total_ops = counter.ops();
  ASSERT_GT(total_ops, 10u);

  for (std::uint64_t k = 0; k < total_ops; ++k) {
    faults::FaultFileSystem fs{
        faults::FsFaultPlan::parse("crash@" + std::to_string(k))};
    CheckpointOptions crash_opts;
    crash_opts.dir = fresh_dir("ckpt_crash_" + std::to_string(k));
    crash_opts.fs = &fs;
    bool crashed = false;
    try {
      const auto run = run_checkpointed(tiny_world(), tiny_config(), crash_opts);
      // A crash injected on a manifest write is absorbed as a warning
      // only when it surfaces as IoError; InjectedCrash always escapes.
      EXPECT_FALSE(run.degraded());
    } catch (const faults::InjectedCrash&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed) << "op " << k << " of " << total_ops
                         << " never executed its injected crash";

    faults::FaultFileSystem clean{faults::FsFaultPlan{}};
    crash_opts.fs = &clean;
    crash_opts.resume = true;
    const auto resumed = run_checkpointed(tiny_world(), tiny_config(), crash_opts);
    EXPECT_FALSE(resumed.degraded()) << "resume after crash at op " << k;
    EXPECT_EQ(content_hash(resumed.dataset), reference)
        << "resume after crash at op " << k << " diverged";
    std::filesystem::remove_all(crash_opts.dir);
  }
}

TEST(RunCheckpointed, TransientFaultsRecoverWithinBoundedRetries) {
  // eio@7 lands on a shard segment write (op 0 is the shards/ mkdir;
  // each shard costs 5 mutating ops). Two consecutive failures still fit
  // inside the default 4-attempt policy.
  faults::FaultFileSystem fs{faults::FsFaultPlan::parse("eio@7x2")};
  CheckpointOptions opts;
  opts.dir = fresh_dir("ckpt_eio");
  opts.fs = &fs;
  opts.retry.base_delay_ms = 0.01;  // keep the test fast
  const auto run = run_checkpointed(tiny_world(), tiny_config(), opts);
  EXPECT_FALSE(run.degraded());
  EXPECT_EQ(content_hash(run.dataset), content_hash(reference_dataset()));
}

TEST(RunCheckpointed, ExhaustedShardQuarantinesAndResumeHeals) {
  // Four EIO hits starting at op 7 fail all three publication attempts
  // of the same shard (the first failed attempt burns two firings: the
  // segment write plus its best-effort tmp cleanup): retries exhaust,
  // the shard quarantines as kIoFailure, and the run degrades but
  // completes.
  faults::FaultFileSystem fs{faults::FsFaultPlan::parse("eio@7x4")};
  CheckpointOptions opts;
  opts.dir = fresh_dir("ckpt_exhaust");
  opts.fs = &fs;
  opts.retry.max_attempts = 3;
  opts.retry.base_delay_ms = 0.01;
  const auto run = run_checkpointed(tiny_world(), tiny_config(), opts);
  EXPECT_TRUE(run.degraded());
  EXPECT_EQ(run.shards_failed, 1u);
  EXPECT_EQ(run.dataset.qc.count(QuarantineReason::kIoFailure), 1u);
  EXPECT_NE(content_hash(run.dataset), content_hash(reference_dataset()));

  // The checkpoint keeps every healthy shard; a clean resume re-simulates
  // only the quarantined one and lands byte-identical.
  faults::FaultFileSystem clean{faults::FsFaultPlan{}};
  opts.fs = &clean;
  opts.resume = true;
  const auto healed = run_checkpointed(tiny_world(), tiny_config(), opts);
  EXPECT_FALSE(healed.degraded());
  EXPECT_GT(healed.shards_reused, 0u);
  EXPECT_EQ(content_hash(healed.dataset), content_hash(reference_dataset()));
}

TEST(RunCheckpointed, ImpossibleDeadlineQuarantinesEveryShard) {
  CheckpointOptions opts;
  opts.dir = fresh_dir("ckpt_deadline");
  opts.shard_deadline_s = 1e-9;
  const auto run = run_checkpointed(tiny_world(), tiny_config(), opts);
  EXPECT_TRUE(run.degraded());
  EXPECT_EQ(run.shards_failed, run.shards_total);
  EXPECT_EQ(run.dataset.qc.count(QuarantineReason::kDeadlineExceeded),
            run.shards_total);
  EXPECT_TRUE(run.dataset.dasu.empty());
  EXPECT_TRUE(run.dataset.fcc.empty());

  // Deadlines off again: the same directory heals to the full dataset.
  opts.shard_deadline_s = 0.0;
  opts.resume = true;
  const auto healed = run_checkpointed(tiny_world(), tiny_config(), opts);
  EXPECT_FALSE(healed.degraded());
  EXPECT_EQ(content_hash(healed.dataset), content_hash(reference_dataset()));
}

TEST(RunCheckpointed, FailureTripwireCountsOnlyHouseholdRows) {
  // A sick simulation aborts the checkpointed run as it aborts generate().
  auto sick = tiny_config();
  sick.faults = faults::FaultPlan::parse("fail=0.9");
  sick.max_household_failure_rate = 0.05;
  CheckpointOptions opts;
  opts.dir = fresh_dir("ckpt_sick");
  EXPECT_THROW((void)run_checkpointed(tiny_world(), sick, opts), AnalysisError);

  // Shard-level quarantine rows (I/O, deadline) are run-level events: even
  // a zero tolerance for failed households lets such runs complete.
  auto strict = tiny_config();
  strict.max_household_failure_rate = 0.0;
  faults::FaultFileSystem fs{faults::FsFaultPlan::parse("eio@7x4")};
  opts.dir = fresh_dir("ckpt_strict_io");
  opts.fs = &fs;
  opts.retry.max_attempts = 3;
  opts.retry.base_delay_ms = 0.01;
  const auto io = run_checkpointed(tiny_world(), strict, opts);
  EXPECT_EQ(io.dataset.qc.count(QuarantineReason::kIoFailure), 1u);
  EXPECT_EQ(io.dataset.qc.rows.size(), 1u);

  CheckpointOptions late;
  late.dir = fresh_dir("ckpt_strict_deadline");
  late.shard_deadline_s = 1e-9;
  const auto deadline = run_checkpointed(tiny_world(), strict, late);
  EXPECT_EQ(deadline.dataset.qc.count(QuarantineReason::kDeadlineExceeded),
            deadline.shards_total);
}

}  // namespace
}  // namespace bblab::store
