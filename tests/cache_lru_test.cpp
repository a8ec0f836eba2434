// LRU semantics of the artifact cache: hits refresh a run's last access,
// and `trim` evicts the oldest-accessed runs first until under budget.
#include "store/cache.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>

#include "dataset/generator.h"
#include "store/fingerprint.h"

namespace bblab::store {
namespace {

dataset::StudyConfig tiny_config(std::uint64_t seed) {
  dataset::StudyConfig config;
  config.seed = seed;
  config.population_scale = 0.005;
  config.window_days = 0.1;
  config.fcc_users = 10;
  config.last_year = config.first_year;
  return config;
}

/// generate() the dataset for `seed` through the cache.
dataset::StudyDataset run(const ArtifactCache& cache, std::uint64_t seed) {
  return dataset::StudyGenerator{market::World::builtin(), tiny_config(seed)}.generate(
      {.store = &cache});
}

class CacheLruTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::path{::testing::TempDir()} /
            ("cache_lru_" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  /// Publish the run for `seed`; returns its fingerprint.
  static Fingerprint put(const ArtifactCache& cache, std::uint64_t seed) {
    (void)run(cache, seed);
    return dataset_fingerprint(tiny_config(seed), market::World::builtin());
  }

  /// Backdate every segment of a run so access ordering is unambiguous
  /// without sleeping through filesystem timestamp granularity.
  static void age(const ArtifactCache& cache, const Fingerprint& key,
                  std::chrono::seconds by) {
    for (const auto& f : std::filesystem::directory_iterator{cache.run_dir(key)}) {
      std::filesystem::last_write_time(f.path(),
                                       std::filesystem::last_write_time(f.path()) - by);
    }
  }

  static std::uintmax_t size_of(const ArtifactCache& cache, const Fingerprint& key) {
    for (const auto& e : cache.list()) {
      if (e.key == key) return e.size_bytes;
    }
    return 0;
  }

  static std::filesystem::file_time_type last_access(const ArtifactCache& cache,
                                                     const Fingerprint& key) {
    for (const auto& e : cache.list()) {
      if (e.key == key) return e.last_access;
    }
    return {};
  }

  std::filesystem::path root_;
};

TEST_F(CacheLruTest, LoadBumpsLastAccess) {
  const ArtifactCache cache{root_};
  const auto key = put(cache, 1);
  age(cache, key, std::chrono::seconds{3600});
  const auto before = last_access(cache, key);

  (void)run(cache, 1);  // a full hit
  const auto after = last_access(cache, key);
  EXPECT_GT(after, before);

  // list() reports the refreshed access time of the one run.
  const auto entries = cache.list();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].last_access, after);
  EXPECT_EQ(entries[0].path, cache.run_dir(key));
}

TEST_F(CacheLruTest, TrimEvictsOldestAccessFirst) {
  const ArtifactCache cache{root_};
  const auto a = put(cache, 1);
  const auto b = put(cache, 2);
  const auto c = put(cache, 3);
  // Access order (oldest → newest): b, c, a.
  age(cache, b, std::chrono::seconds{300});
  age(cache, c, std::chrono::seconds{200});
  age(cache, a, std::chrono::seconds{100});

  // Budget for exactly the two most recently accessed runs.
  const auto budget = size_of(cache, a) + size_of(cache, c);
  EXPECT_EQ(cache.trim(budget), 1u);
  EXPECT_FALSE(std::filesystem::exists(cache.run_dir(b)));
  EXPECT_TRUE(std::filesystem::exists(cache.run_dir(a)));
  EXPECT_TRUE(std::filesystem::exists(cache.run_dir(c)));
}

TEST_F(CacheLruTest, HitProtectsEntryFromTrim) {
  const ArtifactCache cache{root_};
  const auto a = put(cache, 1);
  const auto b = put(cache, 2);
  age(cache, a, std::chrono::seconds{300});
  age(cache, b, std::chrono::seconds{200});
  // `a` is oldest — but a hit refreshes it, so trim takes `b` instead.
  (void)run(cache, 1);

  const auto budget = size_of(cache, a);
  EXPECT_EQ(cache.trim(budget), 1u);
  EXPECT_TRUE(std::filesystem::exists(cache.run_dir(a)));
  EXPECT_FALSE(std::filesystem::exists(cache.run_dir(b)));
}

TEST_F(CacheLruTest, TrimWithinBudgetIsANoOp) {
  const ArtifactCache cache{root_};
  (void)put(cache, 1);
  EXPECT_EQ(cache.trim(std::numeric_limits<std::uintmax_t>::max()), 0u);
  EXPECT_EQ(cache.list().size(), 1u);
}

TEST_F(CacheLruTest, TrimToZeroEmptiesTheCache) {
  const ArtifactCache cache{root_};
  (void)put(cache, 1);
  (void)put(cache, 2);
  EXPECT_EQ(cache.trim(0), 2u);
  EXPECT_TRUE(cache.list().empty());
}

}  // namespace
}  // namespace bblab::store
