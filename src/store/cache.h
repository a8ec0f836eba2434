// Content-addressed store of simulated shards.
//
// Simulating a full study panel takes seconds to minutes; loading its
// snapshot takes milliseconds. The cache closes that loop one shard at a
// time: StudyGenerator::generate() asks it for every planned shard
// (dataset::ShardStore), merges each verified hit, and publishes each
// shard it had to simulate. A run is keyed by its generation fingerprint
// (store::dataset_fingerprint), so any run that asks for a (config, world)
// pair someone already simulated — in full, in part, or up to the moment
// it was killed — re-simulates only what is missing, and the merged
// dataset is bit-identical to a fresh run at any thread count: the
// fingerprint canonicalizes away parallelism and .bbs is lossless.
//
// Layout under the root:
//
//   objects/<2 hex>/<30 hex>/shard-00042.bbs   one published segment
//   objects/<2 hex>/<30 hex>.bbs               whole-dataset file of an
//                                              older build (listed and
//                                              removed, never read)
//   objects/**/*.tmp                           residue of a killed writer
//
// Every segment is a self-certifying .bbs snapshot holding one shard's
// records, upgrades and QC ledger beside the run's config:
//
//   - published atomically (fsynced process-unique temp file + rename),
//     then read back and verified, and retried with seeded backoff;
//   - on load it must pass its checksums, its embedded config must
//     fingerprint to the run key, and its contents must name the shard
//     (ids, instrument, country and year; see read_segment in cache.cpp).
//
// Robustness policy: a cache must never be able to make a run wrong.
// A segment that fails verification is warned about, removed, and
// re-simulated; a shard whose publication fails (after retries) is
// merged all the same and only costs the next run its re-simulation;
// stale temp files are swept when the cache is opened.
#pragma once

#include <cstddef>
#include <filesystem>
#include <optional>
#include <vector>

#include "core/fs.h"
#include "core/retry.h"
#include "dataset/generator.h"
#include "store/fingerprint.h"

namespace bblab::store {

/// One cached run as listed by `bblab cache ls`.
struct CacheEntry {
  Fingerprint key;
  std::filesystem::path path;  ///< the run's segment directory
  std::uintmax_t size_bytes{0};
  /// Last time a segment of the run was published or served. Tracked as
  /// the newest segment mtime (load() bumps it on every hit), so it
  /// survives across processes with no sidecar metadata to desynchronize.
  std::filesystem::file_time_type last_access{};
};

class ArtifactCache final : public dataset::ShardStore {
 public:
  /// Cache rooted at an explicit directory (created lazily on publish).
  /// Publication retries transient I/O under `retry` and writes through
  /// `fs` (null = core::FileSystem::instance()).
  explicit ArtifactCache(std::filesystem::path root, core::RetryPolicy retry = {},
                         core::FileSystem* fs = nullptr);

  /// Resolve the default cache root: $BBLAB_CACHE_DIR, else
  /// $XDG_CACHE_HOME/bblab, else $HOME/.cache/bblab, else ./.bblab_cache.
  [[nodiscard]] static std::filesystem::path default_root();

  [[nodiscard]] const std::filesystem::path& root() const { return root_; }

  /// Directory holding run `key`'s segments (objects/<2 hex>/<30 hex>;
  /// the two-digit fan-out keeps directories small at scale).
  [[nodiscard]] std::filesystem::path run_dir(const Fingerprint& key) const;

  /// Path of shard `index`'s segment in run `key`.
  [[nodiscard]] std::filesystem::path segment_path(const Fingerprint& key,
                                                   std::size_t index) const;

  /// The verified segment of `spec` for (config, world), or nullopt. A
  /// present segment that fails verification is reported, deleted and
  /// treated as absent — never propagated.
  [[nodiscard]] std::optional<dataset::ShardOutput> load(
      const dataset::StudyConfig& config, const market::World& world,
      const dataset::ShardSpec& spec) const override;

  /// Publish `out` as `spec`'s segment. I/O failures that outlast the
  /// retry policy are logged and counted, not thrown.
  void publish(const dataset::StudyConfig& config, const market::World& world,
               const dataset::ShardSpec& spec,
               const dataset::ShardOutput& out) const override;

  /// All runs, sorted by key for stable `cache ls` output. A
  /// whole-dataset file objects/<2 hex>/<30 hex>.bbs, which builds before
  /// per-shard segments wrote, counts as (part of) its key's run.
  /// Directories and files that do not look like runs are ignored.
  [[nodiscard]] std::vector<CacheEntry> list() const;

  /// Remove one run, its whole-dataset file included; true if it existed.
  bool remove(const Fingerprint& key) const;

  /// Remove every run; returns how many were removed.
  std::size_t clear() const;

  /// Evict least-recently-accessed runs until the cache's total size is
  /// at most `max_bytes`. Returns how many runs were removed. Best-effort
  /// under concurrency: a run that disappears mid-trim is not counted.
  std::size_t trim(std::uintmax_t max_bytes) const;

  /// Remove `*.tmp` residue under objects/ left by writers that died
  /// before their atomic rename, if older than $BBLAB_CACHE_TMP_TTL_S
  /// seconds (default 3600 — young temp files may belong to a live
  /// writer). Runs automatically on construction; returns the count
  /// removed. Never throws: sweeping is best-effort hygiene.
  std::size_t sweep_stale_tmp() const;

 private:
  std::filesystem::path root_;
  core::RetryPolicy retry_;
  core::FileSystem* fs_;
};

}  // namespace bblab::store
