#include "store/cache.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <system_error>
#include <utility>

#include "core/error.h"
#include "core/logging.h"
#include "core/parse.h"
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

}  // namespace

ArtifactCache::ArtifactCache(std::filesystem::path root) : root_{std::move(root)} {
  require(!root_.empty(), "ArtifactCache: empty root directory");
  // A writer killed mid-store leaves a *.tmp behind that nothing will
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

std::filesystem::path ArtifactCache::entry_path(const Fingerprint& key) const {
  const std::string hex = key.hex();
  return root_ / "objects" / hex.substr(0, 2) / (hex.substr(2) + ".bbs");
}

std::optional<dataset::StudyDataset> ArtifactCache::load(
    const Fingerprint& key, const market::World& world) const {
  OBS_SPAN("cache.load");
  static obs::Counter& hits = obs::Registry::instance().counter("cache.hits");
  static obs::Counter& misses = obs::Registry::instance().counter("cache.misses");
  static obs::Counter& evictions =
      obs::Registry::instance().counter("cache.evictions");
  const std::filesystem::path path = entry_path(key);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) {
    misses.add();
    return std::nullopt;
  }
  try {
    auto ds = read_snapshot_file(path, world);
    hits.add();
    // Bump the entry's mtime so `cache ls --by-age` and trim() see it as
    // recently used. Best-effort: a read-only cache still serves hits.
    std::error_code touch_ec;
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now(), touch_ec);
    return ds;
  } catch (const std::exception& e) {
    // A damaged entry must never fail the run — evict it and resimulate.
    log_warn("cache: evicting unreadable entry ", path.string(), " (", e.what(),
             ")");
    evictions.add();
    misses.add();
    std::filesystem::remove(path, ec);
    return std::nullopt;
  }
}

std::filesystem::path ArtifactCache::store(const Fingerprint& key,
                                           const dataset::StudyDataset& ds) const {
  OBS_SPAN("cache.store");
  static obs::Counter& stores = obs::Registry::instance().counter("cache.stores");
  stores.add();
  const std::filesystem::path path = entry_path(key);
  // Loser-discard under contention: the cache is content-addressed, so a
  // present entry already holds the bytes we would write. Skipping the
  // write (rather than racing the rename) is both cheaper and keeps two
  // concurrent publishers from doing double work; write_snapshot_file's
  // process-unique temp name + atomic rename covers the window where
  // both pass this check.
  std::error_code ec;
  if (std::filesystem::exists(path, ec) && !ec) return path;
  write_snapshot_file(path, ds);  // creates parents, writes unique tmp, renames
  return path;
}

std::vector<CacheEntry> ArtifactCache::list() const {
  std::vector<CacheEntry> entries;
  const std::filesystem::path objects = root_ / "objects";
  std::error_code ec;
  if (!std::filesystem::is_directory(objects, ec) || ec) return entries;
  for (const auto& shard :
       std::filesystem::directory_iterator{objects, ec}) {
    if (ec || !shard.is_directory()) continue;
    const std::string prefix = shard.path().filename().string();
    for (const auto& file : std::filesystem::directory_iterator{shard.path(), ec}) {
      if (ec || !file.is_regular_file() || file.path().extension() != ".bbs") {
        continue;
      }
      const auto key = Fingerprint::from_hex(prefix + file.path().stem().string());
      if (!key) continue;
      std::error_code size_ec;
      const auto size = std::filesystem::file_size(file.path(), size_ec);
      std::error_code time_ec;
      const auto atime = std::filesystem::last_write_time(file.path(), time_ec);
      entries.push_back({*key, file.path(), size_ec ? 0 : size,
                         time_ec ? std::filesystem::file_time_type{} : atime});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const CacheEntry& a, const CacheEntry& b) { return a.key < b.key; });
  return entries;
}

bool ArtifactCache::remove(const Fingerprint& key) const {
  std::error_code ec;
  return std::filesystem::remove(entry_path(key), ec) && !ec;
}

std::size_t ArtifactCache::clear() const {
  std::size_t removed = 0;
  for (const auto& entry : list()) {
    std::error_code ec;
    if (std::filesystem::remove(entry.path, ec) && !ec) ++removed;
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
    std::error_code ec;
    if (std::filesystem::remove(e.path, ec) && !ec) {
      total -= e.size_bytes;
      ++removed;
      trimmed.add();
      log_info("cache: trimmed ", e.path.string());
    }
  }
  return removed;
}

}  // namespace bblab::store
