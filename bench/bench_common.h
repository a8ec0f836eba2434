// Shared setup for the reproduction harness binaries.
//
// Every bench regenerates the same deterministic study dataset (seed
// 2014) and prints its figure/table next to the paper's reported values.
// Scale can be adjusted without recompiling:
//   BBLAB_SCALE=0.5  population scale (default 0.25 ~ 3000 Dasu users)
//   BBLAB_DAYS=2     observation window days (default 1.5)
//   BBLAB_THREADS=4  simulation worker threads (default 0 = all cores);
//                    the dataset is identical for every value
// Datasets are cached in the artifact cache (see load_or_generate).
#pragma once

#include <cstdlib>
#include <exception>
#include <iostream>
#include <utility>

#include "core/logging.h"
#include "dataset/generator.h"
#include "store/cache.h"

namespace bblab::bench {

inline double env_or(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : fallback;
}

inline dataset::StudyConfig bench_config() {
  dataset::StudyConfig config;
  config.seed = 2014;
  config.threads = static_cast<std::size_t>(env_or("BBLAB_THREADS", 0.0));
  config.population_scale = env_or("BBLAB_SCALE", 0.25);
  config.window_days = env_or("BBLAB_DAYS", 1.5);
  config.fcc_users = 900;
  config.fcc_window_days = 3.0;
  config.first_year = 2011;
  config.last_year = 2013;
  config.upgrade_follow_share = 0.35;
  return config;
}

/// Load the dataset for this configuration from the artifact cache
/// (store::ArtifactCache::default_root(), the same cache as
/// `bblab --cache`), keyed by its generation fingerprint; on a miss,
/// generate and store it. Set BBLAB_NO_CACHE=1 to always regenerate.
inline dataset::StudyDataset load_or_generate(const dataset::StudyConfig& config) {
  const market::World& world = market::World::builtin();
  const bool use_cache = std::getenv("BBLAB_NO_CACHE") == nullptr;
  const store::ArtifactCache cache{store::ArtifactCache::default_root()};
  const store::Fingerprint key = store::dataset_fingerprint(config, world);
  if (use_cache) {
    if (auto ds = cache.load(key, world)) {
      std::cerr << "[bench] loaded cached dataset " << cache.entry_path(key) << "\n";
      return std::move(*ds);
    }
  }
  std::cerr << "[bench] generating dataset (scale=" << config.population_scale
            << ", window=" << config.window_days << "d, seed=" << config.seed
            << ")...\n";
  auto ds = dataset::StudyGenerator{world, config}.generate();
  if (use_cache) {
    try {
      (void)cache.store(key, ds);
    } catch (const std::exception& e) {
      std::cerr << "[bench] cache store failed (" << e.what() << ")\n";
    }
  }
  return ds;
}

inline const dataset::StudyDataset& bench_dataset() {
  static const dataset::StudyDataset ds = [] {
    set_log_level(LogLevel::kInfo);
    auto d = load_or_generate(bench_config());
    std::cerr << "[bench] " << d.dasu.size() << " dasu users, " << d.fcc.size()
              << " fcc users, " << d.upgrades.size() << " upgrade pairs\n";
    return d;
  }();
  return ds;
}

}  // namespace bblab::bench
