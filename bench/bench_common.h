// Shared setup for the reproduction harness binaries.
//
// Every bench regenerates the same deterministic study dataset (seed
// 2014) and prints its figure/table next to the paper's reported values.
// Scale can be adjusted without recompiling:
//   BBLAB_SCALE=0.5  population scale (default 0.25 ~ 3000 Dasu users)
//   BBLAB_DAYS=2     observation window days (default 1.5)
//   BBLAB_THREADS=4  simulation worker threads (default 0 = all cores,
//                    at most core::kMaxThreads); the dataset is identical
//                    for every value
// The values follow `bblab`'s rules for --scale/--days/--threads: the
// whole value must parse, scale and days finite and > 0, threads digits
// only. A bad value ends the run with a message instead of being guessed.
// Datasets are cached in the artifact cache (see load_or_generate).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <utility>

#include "core/logging.h"
#include "core/parse.h"
#include "core/thread_pool.h"
#include "dataset/generator.h"
#include "store/cache.h"

namespace bblab::bench {

[[noreturn]] inline void bad_env(const char* name, const char* value,
                                 const char* want) {
  std::cerr << "[bench] invalid " << name << "='" << value << "' (want " << want
            << ")\n";
  std::exit(2);
}

/// $name as a finite number > 0, or `fallback` when unset.
inline double env_positive(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const auto x = parse_number<double>(v);
  if (!x || !std::isfinite(*x) || *x <= 0.0) bad_env(name, v, "a finite number > 0");
  return *x;
}

/// $BBLAB_THREADS as a thread count, or 0 (all cores) when unset.
inline std::size_t env_threads() {
  const char* v = std::getenv("BBLAB_THREADS");
  if (v == nullptr) return 0;
  const auto n = parse_number<std::uint64_t>(v);
  if (!n || *n > core::kMaxThreads) {
    bad_env("BBLAB_THREADS", v,
            ("digits, at most " + std::to_string(core::kMaxThreads)).c_str());
  }
  return static_cast<std::size_t>(*n);
}

inline dataset::StudyConfig bench_config() {
  dataset::StudyConfig config;
  config.seed = 2014;
  config.threads = env_threads();
  config.population_scale = env_positive("BBLAB_SCALE", 0.25);
  config.window_days = env_positive("BBLAB_DAYS", 1.5);
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
