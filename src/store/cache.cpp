#include "store/cache.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>
#include <system_error>
#include <utility>

#include "core/error.h"
#include "core/hash.h"
#include "core/logging.h"
#include "core/parse.h"
#include "core/rng.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "store/bbs.h"

namespace bblab::store {

namespace {

std::optional<std::string> env(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string{v};
}

using Kind = dataset::ShardSpec::Kind;

/// A shard's output beside the run's config, as a snapshot-able dataset.
/// Markets stay empty: every run rebuilds them from the config.
dataset::StudyDataset segment_dataset(const dataset::StudyConfig& config,
                                      const dataset::ShardSpec& spec,
                                      const dataset::ShardOutput& out) {
  dataset::StudyDataset sds;
  sds.config = config;
  (spec.kind == Kind::kDasu ? sds.dasu : sds.fcc) = out.records;
  sds.upgrades = out.upgrades;
  sds.qc = out.qc;
  return sds;
}

/// Throw unless `sds` can only be `spec`'s output: shards tile the user-id
/// space disjointly, so every record, upgrade and QC row must carry an id
/// inside the shard's range, every record the shard's instrument, country
/// and year, and the admitted and quarantined households must add up to
/// the shard's size. A segment of another shard fails at its first row.
void check_names_shard(const dataset::StudyDataset& sds, const dataset::ShardSpec& spec,
                       const std::filesystem::path& path) {
  const auto in_range = [&](std::uint64_t id) {
    return id >= spec.base_id && id - spec.base_id < spec.n_users;
  };
  const auto& records = spec.kind == Kind::kDasu ? sds.dasu : sds.fcc;
  const auto& others = spec.kind == Kind::kDasu ? sds.fcc : sds.dasu;
  const auto source =
      spec.kind == Kind::kDasu ? dataset::Source::kDasu : dataset::Source::kFcc;
  const int year = sds.config.first_year + spec.year_index;
  bool ok = others.empty() && sds.markets.empty() &&
            sds.qc.admitted + sds.qc.rows.size() == spec.n_users;
  for (const auto& r : records) {
    ok = ok && in_range(r.user_id) && r.source == source &&
         r.country_code == spec.country_code && r.year == year;
  }
  for (const auto& u : sds.upgrades) ok = ok && in_range(u.user_id);
  for (const auto& row : sds.qc.rows) ok = ok && in_range(row.index);
  if (!ok) {
    throw SnapshotError{QuarantineReason::kFormatMismatch,
                        "segment " + path.string() + " does not hold " + spec.label()};
  }
}

/// Whether `a` and `b` feed dataset_fingerprint identically. The world
/// and the version constants are the rest of the feed, so under one world
/// this is "fingerprints to the same run key", without hashing the world
/// (most of the feed) once per segment.
bool same_run_config(const dataset::StudyConfig& a, const dataset::StudyConfig& b) {
  core::Hasher ha;
  core::Hasher hb;
  a.fingerprint(ha);
  b.fingerprint(hb);
  return ha.digest() == hb.digest();
}

/// Decode the segment at `path` and prove it is `spec`'s output in the
/// run of (config, world): the .bbs checksums cover every byte, the
/// embedded config must fingerprint to the run key, and the contents must
/// name the shard. Throws on any failure.
dataset::ShardOutput read_segment(const std::filesystem::path& path,
                                  const dataset::StudyConfig& config,
                                  const market::World& world,
                                  const dataset::ShardSpec& spec) {
  dataset::StudyDataset sds = read_snapshot_file(path, world);
  if (!same_run_config(sds.config, config)) {
    throw SnapshotError{QuarantineReason::kFormatMismatch,
                        "segment " + path.string() + " belongs to another run"};
  }
  check_names_shard(sds, spec, path);
  dataset::ShardOutput out;
  out.records = std::move(spec.kind == Kind::kDasu ? sds.dasu : sds.fcc);
  out.upgrades = std::move(sds.upgrades);
  out.qc = std::move(sds.qc);
  return out;
}

/// Where builds before per-shard segments kept run `dir`'s key: one
/// whole-dataset snapshot, objects/<2 hex>/<30 hex>.bbs. Nothing reads it
/// any more; list, remove and trim still see it, so it can be removed.
std::filesystem::path whole_dataset_path(std::filesystem::path dir) {
  return dir += ".bbs";
}

/// Sum of file sizes and newest file mtime of one run: the segments in
/// `dir` and any whole-dataset file beside it (the directory's own mtime
/// when there is no file). The entry's path is `dir`, or the
/// whole-dataset file when only that exists.
CacheEntry scan_run(const Fingerprint& key, const std::filesystem::path& dir) {
  const std::filesystem::path whole = whole_dataset_path(dir);
  std::error_code ec;
  CacheEntry entry{key, std::filesystem::is_directory(dir, ec) ? dir : whole, 0,
                   std::filesystem::file_time_type::min()};
  const auto add = [&](const std::filesystem::path& file) {
    std::error_code size_ec;
    const auto size = std::filesystem::file_size(file, size_ec);
    if (!size_ec) entry.size_bytes += size;
    std::error_code time_ec;
    const auto mtime = std::filesystem::last_write_time(file, time_ec);
    if (!time_ec) entry.last_access = std::max(entry.last_access, mtime);
  };
  for (const auto& file : std::filesystem::directory_iterator{dir, ec}) {
    if (ec) break;
    if (file.is_regular_file() && file.path().extension() == ".bbs") add(file.path());
  }
  std::error_code whole_ec;
  if (std::filesystem::is_regular_file(whole, whole_ec)) add(whole);
  if (entry.last_access == std::filesystem::file_time_type::min()) {
    entry.last_access = std::filesystem::last_write_time(dir, ec);
  }
  return entry;
}

}  // namespace

ArtifactCache::ArtifactCache(std::filesystem::path root, core::RetryPolicy retry,
                             core::FileSystem* fs)
    : root_{std::move(root)}, retry_{retry}, fs_{fs} {
  require(!root_.empty(), "ArtifactCache: empty root directory");
  // A writer killed mid-publish leaves a *.tmp behind that nothing will
  // ever rename. Sweeping on open keeps the cache self-healing without a
  // separate gc command; the age threshold protects live writers.
  sweep_stale_tmp();
}

std::size_t ArtifactCache::sweep_stale_tmp() const {
  double ttl_s = 3600.0;
  if (const auto v = env("BBLAB_CACHE_TMP_TTL_S")) {
    // Anything but a finite, non-negative whole token keeps the default:
    // a TTL read wrongly would delete a live writer's file.
    const std::optional<double> parsed = parse_number<double>(*v);
    if (parsed && std::isfinite(*parsed) && *parsed >= 0.0) ttl_s = *parsed;
  }
  std::size_t removed = 0;
  const std::filesystem::path objects = root_ / "objects";
  std::error_code ec;
  if (!std::filesystem::is_directory(objects, ec) || ec) return removed;
  const auto now = std::filesystem::file_time_type::clock::now();
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator{objects, ec}) {
    if (ec) break;
    if (!entry.is_regular_file() || entry.path().extension() != ".tmp") continue;
    std::error_code fec;
    const auto mtime = std::filesystem::last_write_time(entry.path(), fec);
    if (fec) continue;
    const double age_s =
        std::chrono::duration<double>{now - mtime}.count();
    if (age_s < ttl_s) continue;  // possibly a live writer's file
    std::error_code rec;
    if (std::filesystem::remove(entry.path(), rec) && !rec) {
      log_info("cache: swept stale temp file ", entry.path().string());
      static obs::Counter& swept =
          obs::Registry::instance().counter("cache.stale_tmp_swept");
      swept.add();
      ++removed;
    }
  }
  return removed;
}

std::filesystem::path ArtifactCache::default_root() {
  if (const auto dir = env("BBLAB_CACHE_DIR")) return *dir;
  if (const auto xdg = env("XDG_CACHE_HOME")) {
    return std::filesystem::path{*xdg} / "bblab";
  }
  if (const auto home = env("HOME")) {
    return std::filesystem::path{*home} / ".cache" / "bblab";
  }
  return std::filesystem::path{".bblab_cache"};
}

std::filesystem::path ArtifactCache::run_dir(const Fingerprint& key) const {
  const std::string hex = key.hex();
  return root_ / "objects" / hex.substr(0, 2) / hex.substr(2);
}

std::filesystem::path ArtifactCache::segment_path(const Fingerprint& key,
                                                  std::size_t index) const {
  std::string n = std::to_string(index);
  if (n.size() < 5) n.insert(0, 5 - n.size(), '0');
  return run_dir(key) / ("shard-" + n + ".bbs");
}

std::optional<dataset::ShardOutput> ArtifactCache::load(
    const dataset::StudyConfig& config, const market::World& world,
    const dataset::ShardSpec& spec) const {
  static obs::Counter& rejected = obs::Registry::instance().counter("shards.rejected");
  const Fingerprint key = dataset_fingerprint(config, world);
  const std::filesystem::path path = segment_path(key, spec.index);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) return std::nullopt;
  OBS_SPAN("cache.load", path.filename().string());
  try {
    dataset::ShardOutput out = read_segment(path, config, world, spec);
    // Bump the segment's mtime so `cache ls --by-age` and trim() see the
    // run as recently used. Best-effort: a read-only cache still serves.
    std::error_code touch_ec;
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now(), touch_ec);
    return out;
  } catch (const std::exception& e) {
    // A damaged or foreign segment must never fail the run or enter it:
    // delete it and re-simulate the shard.
    log_warn("cache: rejecting ", path.string(), " (", e.what(), "); re-simulating");
    rejected.add();
    std::filesystem::remove(path, ec);
    return std::nullopt;
  }
}

void ArtifactCache::publish(const dataset::StudyConfig& config,
                            const market::World& world, const dataset::ShardSpec& spec,
                            const dataset::ShardOutput& out) const {
  static obs::Counter& published = obs::Registry::instance().counter("shards.published");
  static obs::Counter& failed =
      obs::Registry::instance().counter("shards.publish_failed");
  OBS_SPAN("cache.publish", spec.label());
  core::FileSystem& fs = fs_ != nullptr ? *fs_ : core::FileSystem::instance();
  const Fingerprint key = dataset_fingerprint(config, world);
  const std::filesystem::path path = segment_path(key, spec.index);
  // Deterministic backoff jitter: a fork of the run's own seed per shard,
  // so retry schedules replay exactly under a fixed fault plan.
  Rng retry_rng = Rng{config.seed}.fork(0xB0FF).fork(spec.index);
  try {
    core::with_retry(retry_, retry_rng, "publish " + spec.label(), [&] {
      write_snapshot_file(path, segment_dataset(config, spec, out), fs);
      // Read-back verification closes the torn-write hole: a silent short
      // write passes the rename but cannot pass the checksums. Failing
      // transiently makes with_retry redo the whole write.
      try {
        (void)read_segment(path, config, world, spec);
      } catch (const IoError& e) {
        throw TransientIoError{std::string{"read-back verification failed: "} +
                               e.what()};
      }
    });
    published.add();
  } catch (const IoError& e) {
    // The shard is merged regardless; only the next run's reuse is lost.
    // An injected crash is not an IoError and keeps propagating.
    log_warn("cache: ", spec.label(), " not published: ", e.what(),
             " (merged anyway; the next run re-simulates it)");
    failed.add();
  }
}

std::vector<CacheEntry> ArtifactCache::list() const {
  std::vector<CacheEntry> entries;
  const std::filesystem::path objects = root_ / "objects";
  std::error_code ec;
  if (!std::filesystem::is_directory(objects, ec) || ec) return entries;
  std::vector<Fingerprint> keys;
  for (const auto& fan : std::filesystem::directory_iterator{objects, ec}) {
    if (ec || !fan.is_directory()) continue;
    const std::string prefix = fan.path().filename().string();
    for (const auto& child : std::filesystem::directory_iterator{fan.path(), ec}) {
      if (ec) continue;
      // A run directory, or a whole-dataset file of an older build.
      std::filesystem::path name = child.path().filename();
      if (child.is_regular_file() && name.extension() == ".bbs") {
        name = name.stem();
      } else if (!child.is_directory()) {
        continue;
      }
      if (const auto key = Fingerprint::from_hex(prefix + name.string())) {
        keys.push_back(*key);
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (const auto& key : keys) entries.push_back(scan_run(key, run_dir(key)));
  return entries;
}

bool ArtifactCache::remove(const Fingerprint& key) const {
  std::error_code dir_ec;
  const bool dir = std::filesystem::remove_all(run_dir(key), dir_ec) > 0 && !dir_ec;
  std::error_code whole_ec;
  const bool whole =
      std::filesystem::remove(whole_dataset_path(run_dir(key)), whole_ec) && !whole_ec;
  return dir || whole;
}

std::size_t ArtifactCache::clear() const {
  std::size_t removed = 0;
  for (const auto& entry : list()) {
    if (remove(entry.key)) ++removed;
  }
  return removed;
}

std::size_t ArtifactCache::trim(std::uintmax_t max_bytes) const {
  auto entries = list();
  std::uintmax_t total = 0;
  for (const auto& e : entries) total += e.size_bytes;
  if (total <= max_bytes) return 0;
  // Oldest access first; key order breaks ties so the victim sequence
  // is deterministic when mtimes collide (coarse filesystems).
  std::sort(entries.begin(), entries.end(),
            [](const CacheEntry& a, const CacheEntry& b) {
              if (a.last_access != b.last_access) {
                return a.last_access < b.last_access;
              }
              return a.key < b.key;
            });
  static obs::Counter& trimmed =
      obs::Registry::instance().counter("cache.trim_evictions");
  std::size_t removed = 0;
  for (const auto& e : entries) {
    if (total <= max_bytes) break;
    if (remove(e.key)) {
      total -= e.size_bytes;
      ++removed;
      trimmed.add();
      log_info("cache: trimmed ", e.path.string());
    }
  }
  return removed;
}

}  // namespace bblab::store
