#include "store/checkpoint.h"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/hash.h"
#include "core/logging.h"
#include "core/parse.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "core/watchdog.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "store/bbs.h"
#include "store/fingerprint.h"

namespace bblab::store {

namespace {

constexpr const char* kManifestHeader = "bblab-checkpoint v1";
/// Seed for manifest line self-checksums (distinct from the .bbs section
/// seed so a manifest line can never masquerade as snapshot content).
constexpr std::uint64_t kManifestSeed = 0xC0117EC7u;

[[nodiscard]] std::string hex16(std::uint64_t v) {
  static const char kDigits[] = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return s;
}

[[nodiscard]] std::optional<std::uint64_t> parse_hex16(const std::string& s) {
  if (s.size() != 16) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return v;
}

[[nodiscard]] std::string shard_file_name(std::size_t index) {
  std::string n = std::to_string(index);
  if (n.size() < 5) n.insert(0, 5 - n.size(), '0');
  return "shard-" + n + ".bbs";
}

/// Process-unique temp name beside `path` (see snapshot_tmp_path in
/// bbs.cpp for the rationale).
[[nodiscard]] std::filesystem::path manifest_tmp_path(
    const std::filesystem::path& path) {
  static std::atomic<std::uint64_t> counter{0};
  return path.string() + ".p" + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed)) + ".tmp";
}

struct ManifestCommit {
  std::uint64_t seq{0};
  std::size_t index{0};
  std::string file;
  std::uint64_t file_hash{0};
};

/// The checkpoint's commit log. Rewritten whole after every shard
/// publication; `parse` salvages the longest valid prefix of commit
/// lines, so a torn rewrite costs at most the newest commit — whose
/// segment is still recovered through the fingerprint-salvage path.
struct Manifest {
  Fingerprint key;
  std::size_t shards{0};
  std::vector<ManifestCommit> commits;
  std::uint64_t next_seq{1};

  [[nodiscard]] static std::string commit_line(const ManifestCommit& c) {
    std::string body = "commit " + std::to_string(c.seq) + " " +
                       std::to_string(c.index) + " " + c.file + " " +
                       hex16(c.file_hash);
    return body + " " + hex16(core::hash_bytes(body.data(), body.size(),
                                               kManifestSeed));
  }

  [[nodiscard]] std::string render() const {
    std::string out = std::string{kManifestHeader} + "\n" +
                      "fingerprint " + key.hex() + "\n" +
                      "shards " + std::to_string(shards) + "\n";
    for (const ManifestCommit& c : commits) out += commit_line(c) + "\n";
    return out;
  }

  [[nodiscard]] static std::optional<Manifest> parse(const std::string& text) {
    std::istringstream in{text};
    std::string line;
    if (!std::getline(in, line) || line != kManifestHeader) return std::nullopt;

    Manifest m;
    if (!std::getline(in, line) || line.rfind("fingerprint ", 0) != 0) {
      return std::nullopt;
    }
    const auto key = Fingerprint::from_hex(line.substr(12));
    if (!key) return std::nullopt;
    m.key = *key;

    if (!std::getline(in, line) || line.rfind("shards ", 0) != 0) {
      return std::nullopt;
    }
    const auto shards = parse_number<std::size_t>(std::string_view{line}.substr(7));
    if (!shards) return std::nullopt;
    m.shards = *shards;

    while (std::getline(in, line)) {
      if (line.empty()) continue;
      // Verify the line's self-checksum before trusting any field: a
      // torn rewrite truncates mid-line, and salvage must stop there.
      const std::size_t hash_pos = line.rfind(' ');
      if (hash_pos == std::string::npos) break;
      const auto line_hash = parse_hex16(line.substr(hash_pos + 1));
      if (!line_hash ||
          *line_hash != core::hash_bytes(line.data(), hash_pos, kManifestSeed)) {
        break;
      }
      std::istringstream fields{line.substr(0, hash_pos)};
      std::string tag, file, file_hash_hex;
      std::uint64_t seq = 0;
      std::size_t index = 0;
      if (!(fields >> tag >> seq >> index >> file >> file_hash_hex) ||
          tag != "commit") {
        break;
      }
      const auto file_hash = parse_hex16(file_hash_hex);
      if (!file_hash) break;
      if (seq < m.next_seq) break;  // sequence must be strictly monotonic
      m.commits.push_back({seq, index, std::move(file), *file_hash});
      m.next_seq = seq + 1;
    }
    return m;
  }
};

/// Wrap a shard's output as a full snapshot-able dataset (markets left
/// empty: they are regenerated from config on merge, and the config
/// section is what makes the segment self-certifying on salvage).
[[nodiscard]] dataset::StudyDataset shard_dataset(const dataset::StudyConfig& config,
                                                  const dataset::ShardSpec& spec,
                                                  const dataset::ShardOutput& out) {
  dataset::StudyDataset sds;
  sds.config = config;
  (spec.kind == dataset::ShardSpec::Kind::kDasu ? sds.dasu : sds.fcc) = out.records;
  sds.upgrades = out.upgrades;
  sds.qc = out.qc;
  return sds;
}

[[nodiscard]] dataset::ShardOutput to_shard_output(const dataset::ShardSpec& spec,
                                                   dataset::StudyDataset&& sds) {
  dataset::ShardOutput out;
  out.records = spec.kind == dataset::ShardSpec::Kind::kDasu ? std::move(sds.dasu)
                                                             : std::move(sds.fcc);
  out.upgrades = std::move(sds.upgrades);
  out.qc = std::move(sds.qc);
  return out;
}

/// Parse + integrity-check a published segment (the .bbs checksums cover
/// every byte) and prove it belongs to this run: its embedded config
/// must fingerprint to the run key. Throws on any failure.
[[nodiscard]] dataset::StudyDataset load_segment(core::FileSystem& fs,
                                                 const std::filesystem::path& path,
                                                 const market::World& world,
                                                 const Fingerprint& key,
                                                 std::uint64_t* file_hash_out) {
  const std::string bytes = fs.read_file(path);
  if (file_hash_out != nullptr) {
    *file_hash_out = core::hash_bytes(bytes.data(), bytes.size(), kManifestSeed);
  }
  dataset::StudyDataset sds = read_snapshot(bytes, world);
  if (dataset_fingerprint(sds.config, world) != key) {
    throw SnapshotError{QuarantineReason::kFormatMismatch,
                        "segment " + path.string() + " belongs to another run"};
  }
  return sds;
}

}  // namespace

CheckpointedRun run_checkpointed(const market::World& world,
                                 const dataset::StudyConfig& config,
                                 const CheckpointOptions& opts) {
  OBS_SPAN("run_checkpointed");
  // Handles up front: the report's checkpoint section must exist (all
  // zeros) even when every shard is reused or the run degrades early.
  static obs::Counter& planned_c =
      obs::Registry::instance().counter("checkpoint.shards_planned");
  static obs::Counter& reused_c =
      obs::Registry::instance().counter("checkpoint.shards_reused");
  static obs::Counter& simulated_c =
      obs::Registry::instance().counter("checkpoint.shards_simulated");
  static obs::Counter& quarantined_c =
      obs::Registry::instance().counter("checkpoint.shards_quarantined");
  static obs::Counter& salvaged_c =
      obs::Registry::instance().counter("checkpoint.segments_salvaged");
  require(!opts.dir.empty(), "run_checkpointed: empty checkpoint directory");
  core::FileSystem& fs = opts.fs != nullptr ? *opts.fs : core::FileSystem::instance();
  const Fingerprint key = dataset_fingerprint(config, world);
  const std::filesystem::path manifest_path = opts.dir / "MANIFEST";
  const std::filesystem::path shards_dir = opts.dir / "shards";

  dataset::StudyGenerator gen{world, config};
  core::ThreadPool pool{config.threads};
  dataset::StudyDataset ds;
  ds.config = config;
  ds.markets = gen.build_markets(pool);
  const std::vector<dataset::ShardSpec> shards = gen.plan_shards(ds.markets);

  fs.create_directories(shards_dir);

  Manifest manifest;
  manifest.key = key;
  manifest.shards = shards.size();
  if (opts.resume && fs.exists(manifest_path)) {
    const auto loaded = Manifest::parse(fs.read_file(manifest_path));
    if (loaded && loaded->key == key && loaded->shards == shards.size()) {
      manifest = *loaded;
      log_info("checkpoint: resuming from ", manifest_path.string(), " (",
               manifest.commits.size(), "/", shards.size(), " shards committed)");
    } else if (loaded) {
      log_warn("checkpoint: ", manifest_path.string(),
               " belongs to a different run (fingerprint/shard mismatch); "
               "starting fresh");
    } else {
      log_warn("checkpoint: ", manifest_path.string(),
               " is unreadable; starting fresh (segments may still salvage)");
    }
  } else if (!opts.resume && fs.exists(manifest_path)) {
    // A fresh (non-resume) run must not leave a stale commit log that a
    // later --resume could trust ahead of the segments it overwrites.
    fs.remove(manifest_path);
  }

  // Shard index -> committed file hash, by value: commit_shard appends to
  // manifest.commits, so pointers into it would dangle on reallocation.
  std::map<std::size_t, std::uint64_t> committed;
  for (const ManifestCommit& c : manifest.commits) committed[c.index] = c.file_hash;

  const bool deadline_enabled = opts.shard_deadline_s > 0.0;
  core::Watchdog watchdog;
  // Deterministic backoff jitter: a distinct fork of the run's own seed,
  // so retry schedules replay exactly under a fixed fault plan.
  Rng retry_rng = Rng{config.seed}.fork(0xB0FF);

  CheckpointedRun run;
  run.shards_total = shards.size();
  planned_c.add(shards.size());

  auto commit_shard = [&](const dataset::ShardSpec& spec, const std::string& file,
                          std::uint64_t file_hash) {
    manifest.commits.push_back({manifest.next_seq, spec.index, file, file_hash});
    manifest.next_seq += 1;
    // Manifest updates are an index over self-certifying segments, so a
    // failed rewrite only slows the next resume (salvage path) — it must
    // not fail the shard that already published. Only I/O failures are
    // absorbed: an injected crash must keep propagating (it simulates
    // process death, and a swallowed death would falsify crash tests).
    try {
      const std::filesystem::path tmp = manifest_tmp_path(manifest_path);
      fs.write_file(tmp, manifest.render());
      fs.rename(tmp, manifest_path);
    } catch (const IoError& e) {
      log_warn("checkpoint: manifest update failed after ", spec.label(), ": ",
               e.what(), " (segment remains salvageable)");
    }
  };

  for (const dataset::ShardSpec& spec : shards) {
    const std::string file = shard_file_name(spec.index);
    const std::filesystem::path path = shards_dir / file;

    if (opts.resume) {
      const auto it = committed.find(spec.index);
      const bool in_manifest = it != committed.end();
      if (in_manifest || fs.exists(path)) {
        try {
          std::uint64_t file_hash = 0;
          dataset::StudyDataset sds = load_segment(fs, path, world, key, &file_hash);
          if (in_manifest && it->second != file_hash) {
            throw SnapshotError{QuarantineReason::kChecksumMismatch,
                                "segment " + path.string() +
                                    " does not match its manifest commit"};
          }
          if (!in_manifest) {
            // Killed between segment rename and manifest rewrite: the
            // segment proved itself (checksums + fingerprint), so adopt
            // it and repair the index.
            log_info("checkpoint: salvaged uncommitted segment ", path.string());
            salvaged_c.add();
            commit_shard(spec, file, file_hash);
          }
          merge_shard_output(ds, spec, to_shard_output(spec, std::move(sds)));
          run.shards_reused += 1;
          reused_c.add();
          continue;
        } catch (const std::exception& e) {
          log_warn("checkpoint: cannot reuse ", path.string(), ": ", e.what(),
                   "; re-simulating");
        }
      }
    }

    dataset::ShardOutput out;
    try {
      if (deadline_enabled) {
        const core::Deadline deadline{opts.shard_deadline_s};
        const auto guard = watchdog.watch(spec.label(), deadline);
        out = gen.simulate_shard(spec, ds.markets, pool, &deadline);
      } else {
        out = gen.simulate_shard(spec, ds.markets, pool);
      }
    } catch (const DeadlineExceeded& e) {
      log_warn("checkpoint: ", spec.label(), " quarantined: ", e.what());
      ds.qc.add(spec.index, QuarantineReason::kDeadlineExceeded, spec.label(),
                e.what());
      run.shards_failed += 1;
      quarantined_c.add();
      continue;
    }
    simulated_c.add();

    try {
      OBS_SPAN("publish_shard", file);
      std::uint64_t file_hash = 0;
      core::with_retry(opts.retry, retry_rng, "publish " + spec.label(), [&] {
        write_snapshot_file(path, shard_dataset(config, spec, out), fs);
        // Read-back verification closes the torn-write hole: a silent
        // short write passes the rename but cannot pass the snapshot
        // checksums. Failing transiently makes with_retry redo the
        // whole write, which is exactly the right repair.
        try {
          (void)load_segment(fs, path, world, key, &file_hash);
        } catch (const SnapshotError& e) {
          throw TransientIoError{std::string{"read-back verification failed: "} +
                                 e.what()};
        }
      });
      commit_shard(spec, file, file_hash);
    } catch (const IoError& e) {
      log_warn("checkpoint: ", spec.label(),
               " quarantined after exhausting retries: ", e.what());
      ds.qc.add(spec.index, QuarantineReason::kIoFailure, spec.label(), e.what());
      run.shards_failed += 1;
      quarantined_c.add();
      continue;
    }

    merge_shard_output(ds, spec, std::move(out));
  }

  dataset::check_household_failure_rate(ds);

  log_info("checkpoint: ", run.shards_total, " shards (", run.shards_reused,
           " reused, ",
           run.shards_total - run.shards_reused - run.shards_failed,
           " simulated, ", run.shards_failed, " failed)");
  log_info("dataset: ", ds.dasu.size(), " dasu users, ", ds.fcc.size(),
           " fcc users, ", ds.upgrades.size(), " upgrade pairs");
  run.dataset = std::move(ds);
  return run;
}

}  // namespace bblab::store
