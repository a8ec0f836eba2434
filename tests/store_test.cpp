#include "store/bbs.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/hash.h"
#include "dataset/generator.h"
#include "store/cache.h"
#include "store/fingerprint.h"

namespace bblab::store {
namespace {

/// A tiny but fully-populated dataset that exercises every section,
/// including the values operator== cannot check (NaN, -0.0) and a
/// non-empty quarantine ledger.
dataset::StudyDataset make_tiny() {
  dataset::StudyDataset ds;
  ds.config.seed = 77;
  ds.config.threads = 3;
  ds.config.population_scale = 0.25;
  ds.config.faults.churn_probability = 0.125;
  ds.config.placebo = true;

  dataset::UserRecord r;
  r.user_id = 1;
  r.source = dataset::Source::kDasu;
  r.country_code = "US";
  r.region = market::Region::kNorthAmerica;
  r.year = 2012;
  r.capacity = Rate::from_bps(1.0 / 3.0);
  r.rtt_ms = 43.5;
  r.loss = -0.0;  // sign bit must survive
  r.upgrade_cost_per_mbps = std::numeric_limits<double>::quiet_NaN();
  r.archetype = behavior::Archetype::kBtHeavy;
  r.bt_user = true;
  ds.dasu.push_back(r);
  r.user_id = 2;
  r.source = dataset::Source::kFcc;
  r.country_code = "with,comma \"quoted\"\nand newline";
  ds.fcc.push_back(r);

  dataset::UpgradeObservation u;
  u.user_id = 2;
  u.country_code = "JP";
  u.year = 2013;
  u.old_capacity = Rate::from_mbps(8);
  u.new_capacity = Rate::from_mbps(16);
  u.before.mean_down = Rate::from_kbps(0.1 + 0.2);
  u.before.samples = 11;
  u.after.peak_down = Rate::from_kbps(2400);
  u.after.samples_no_bt = 7;
  ds.upgrades.push_back(u);

  dataset::MarketSnapshot snap;
  snap.country = &market::World::builtin().at("US");
  market::ServicePlan plan;
  plan.isp = "Acme";
  plan.country_code = "US";
  plan.download = Rate::from_mbps(50);
  plan.upload = Rate::from_mbps(10);
  plan.monthly_price = MoneyPpp::usd(49.99);
  plan.monthly_cap = 250 * kGiB;
  plan.tech = market::AccessTech::kCable;
  snap.catalog = market::PlanCatalog{{plan}};
  snap.choice = market::ChoiceModel{1.25};
  snap.access_price = MoneyPpp::usd(19.99);
  snap.upgrade_cost_per_mbps = std::numeric_limits<double>::quiet_NaN();
  snap.price_capacity_r = 0.3;
  ds.markets.emplace("US", std::move(snap));

  ds.qc.note_admitted(5);
  ds.qc.add(3, QuarantineReason::kMalformedRow, "raw,text\"", "unterminated");
  ds.qc.add(9, QuarantineReason::kInjectedFault, "stream 9", "planned failure");
  return ds;
}

std::string serialized(const dataset::StudyDataset& ds) {
  std::ostringstream os;
  write_snapshot(os, ds);
  return os.str();
}

TEST(Snapshot, RoundTripIsBitLossless) {
  const auto ds = make_tiny();
  const auto back = read_snapshot(serialized(ds));

  EXPECT_EQ(content_hash(back), content_hash(ds));
  // Spot-check what content_hash asserts, including what operator== cannot.
  EXPECT_EQ(back.config.seed, 77u);
  EXPECT_EQ(back.config.threads, 3u);
  EXPECT_TRUE(back.config.placebo);
  ASSERT_EQ(back.dasu.size(), 1u);
  EXPECT_TRUE(std::isnan(back.dasu[0].upgrade_cost_per_mbps));
  EXPECT_TRUE(std::signbit(back.dasu[0].loss));
  ASSERT_EQ(back.fcc.size(), 1u);
  EXPECT_EQ(back.fcc[0].country_code, "with,comma \"quoted\"\nand newline");
  EXPECT_EQ(back.upgrades, ds.upgrades);
  ASSERT_EQ(back.markets.size(), 1u);
  const auto& snap = back.markets.at("US");
  EXPECT_EQ(snap.country, &market::World::builtin().at("US"));
  EXPECT_TRUE(std::isnan(snap.upgrade_cost_per_mbps));
  EXPECT_DOUBLE_EQ(snap.choice.wtp_multiplier(), 1.25);
  ASSERT_EQ(snap.catalog.size(), 1u);
  EXPECT_EQ(snap.catalog.plans()[0].monthly_cap, 250 * kGiB);
  ASSERT_EQ(back.qc.rows.size(), 2u);
  EXPECT_EQ(back.qc.admitted, 5u);
  EXPECT_EQ(back.qc.rows[0].reason, QuarantineReason::kMalformedRow);
  EXPECT_EQ(back.qc.rows[1].detail, "planned failure");
}

TEST(Snapshot, GeneratedDatasetRoundTrips) {
  dataset::StudyConfig config;
  config.seed = 5;
  config.population_scale = 0.01;
  config.window_days = 0.2;
  config.fcc_users = 20;
  config.last_year = config.first_year;
  const auto ds =
      dataset::StudyGenerator{market::World::builtin(), config}.generate();
  ASSERT_FALSE(ds.dasu.empty());

  const auto back = read_snapshot(serialized(ds));
  EXPECT_EQ(content_hash(back), content_hash(ds));
  EXPECT_EQ(back.markets.size(), ds.markets.size());
}

TEST(Snapshot, EveryByteFlipIsDetected) {
  const std::string clean = serialized(make_tiny());
  EXPECT_NO_THROW((void)read_snapshot(clean));
  // Flip a low and a high bit of every byte of the file. Whatever the
  // byte encodes — magic, version, section payload, footer, trailer —
  // the reader must reject the file with a typed error, never crash or
  // silently return different data.
  std::size_t checked = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x80}) {
      std::string damaged = clean;
      damaged[i] = static_cast<char>(damaged[i] ^ mask);
      EXPECT_THROW((void)read_snapshot(damaged), SnapshotError)
          << "flip survived at byte " << i << " mask " << int(mask);
      ++checked;
    }
  }
  EXPECT_EQ(checked, clean.size() * 2);
}

TEST(Snapshot, TruncationIsDetected) {
  const std::string clean = serialized(make_tiny());
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{1}, std::size_t{15}, std::size_t{16},
        clean.size() / 2, clean.size() - 1}) {
    EXPECT_THROW((void)read_snapshot(clean.substr(0, keep)), SnapshotError)
        << "kept " << keep;
  }
}

// Exhaustive version of the above: a reader facing a file cut at ANY
// byte boundary — a torn write, a full disk, a killed copy — must fail
// with the typed SnapshotError and nothing else. An uncaught vector
// length explosion or bad_alloc here would crash the resume path.
TEST(Snapshot, TruncationAtEveryLengthIsATypedError) {
  const std::string clean = serialized(make_tiny());
  ASSERT_GT(clean.size(), 100u);
  for (std::size_t keep = 0; keep < clean.size(); ++keep) {
    try {
      (void)read_snapshot(clean.substr(0, keep));
      FAIL() << "prefix of " << keep << " bytes accepted as a snapshot";
    } catch (const SnapshotError&) {
      // the one permitted outcome
    } catch (const std::exception& e) {
      FAIL() << "prefix of " << keep << " bytes escaped the typed-error "
             << "contract: " << e.what();
    }
  }
}

TEST(Snapshot, GarbageFilesFailTyped) {
  const auto dir = std::filesystem::path{::testing::TempDir()} / "bbs_garbage";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  EXPECT_THROW((void)read_snapshot_file(dir / "absent.bbs"), IoError);

  // A pipe or a directory is not a corrupt snapshot: it cannot be mapped,
  // which is an IoError naming the path (and a FIFO with no writer must
  // not hang the open).
  ASSERT_EQ(::mkfifo((dir / "pipe.bbs").c_str(), 0600), 0);
  for (const auto& path : {dir / "pipe.bbs", dir}) {
    try {
      (void)read_snapshot_file(path);
      FAIL() << path << " decoded as a snapshot";
    } catch (const SnapshotError& e) {
      FAIL() << path << " reported as a corrupt snapshot: " << e.what();
    } catch (const IoError& e) {
      EXPECT_NE(std::string{e.what()}.find(path.string()), std::string::npos)
          << e.what();
    }
  }

  { std::ofstream out{dir / "empty.bbs", std::ios::binary}; }
  EXPECT_THROW((void)read_snapshot_file(dir / "empty.bbs"), SnapshotError);

  {
    std::ofstream out{dir / "noise.bbs", std::ios::binary};
    out << "this is not a snapshot, not even close, but it is long enough "
           "to get past any fixed-size header read";
  }
  EXPECT_THROW((void)read_snapshot_file(dir / "noise.bbs"), SnapshotError);

  std::filesystem::remove_all(dir);
}

TEST(Snapshot, ErrorsCarryTypedReasons) {
  const std::string clean = serialized(make_tiny());

  std::string wrong_magic = clean;
  wrong_magic[0] = 'X';
  try {
    (void)read_snapshot(wrong_magic);
    FAIL() << "bad magic accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.reason(), QuarantineReason::kFormatMismatch);
  }

  std::string future_version = clean;
  future_version[12] = 9;  // version field, little-endian first byte
  try {
    (void)read_snapshot(future_version);
    FAIL() << "future version accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.reason(), QuarantineReason::kFormatMismatch);
  }

  std::string payload_damage = clean;
  payload_damage[20] ^= 0x40;  // inside the config section payload
  try {
    (void)read_snapshot(payload_damage);
    FAIL() << "payload damage accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.reason(), QuarantineReason::kChecksumMismatch);
  }
}

TEST(Snapshot, OlderFormatVersionIsATypedMismatchNamingBothVersions) {
  std::string v1 = serialized(make_tiny());
  ASSERT_EQ(kFormatVersion, 2u);
  v1[12] = 1;  // version field, little-endian first byte
  try {
    (void)read_snapshot(v1);
    FAIL() << "a version-1 header was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.reason(), QuarantineReason::kFormatMismatch);
    EXPECT_NE(std::string{e.what()}.find(
                  "snapshot format version 1, this library reads version 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(Snapshot, UnknownCountryIsRejectedAsBadValue) {
  auto ds = make_tiny();
  auto node = ds.markets.extract("US");
  node.key() = "ZZ";  // no such country in the builtin world
  ds.markets.insert(std::move(node));
  try {
    (void)read_snapshot(serialized(ds));
    FAIL() << "unknown country accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.reason(), QuarantineReason::kBadValue);
  }
}

TEST(Snapshot, InspectListsAllSectionsInOrder) {
  const auto dir = std::filesystem::path{::testing::TempDir()} /
                   ("bbs_inspect_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string bytes = serialized(make_tiny());
  {
    std::ofstream out{dir / "snap.bbs", std::ios::binary};
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto view = SnapshotView::open(dir / "snap.bbs");
  const auto& info = view.info();
  EXPECT_EQ(info.version, kFormatVersion);
  EXPECT_EQ(info.file_size, bytes.size());
  const std::vector<std::string> want{"config", "dasu",    "fcc",
                                      "upgrades", "markets", "qc"};
  ASSERT_EQ(info.sections.size(), want.size());
  std::uint64_t offset = 16;  // header size
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(info.sections[i].name, want[i]);
    EXPECT_EQ(info.sections[i].offset, offset);
    offset += info.sections[i].size;
  }
  std::filesystem::remove_all(dir);
}

TEST(Snapshot, FileRoundTripAndAtomicity) {
  const auto dir = std::filesystem::path{::testing::TempDir()} / "bbs_file_test";
  const auto path = dir / "nested" / "snap.bbs";
  const auto ds = make_tiny();
  write_snapshot_file(path, ds);
  // Temp names are process-unique (.p<pid>.N.tmp), so scan for residue
  // instead of probing one fixed name.
  for (const auto& entry : std::filesystem::directory_iterator{path.parent_path()}) {
    EXPECT_NE(entry.path().extension(), ".tmp")
        << "publication left temp residue: " << entry.path();
  }
  const auto back = read_snapshot_file(path);
  EXPECT_EQ(content_hash(back), content_hash(ds));
  std::filesystem::remove_all(dir);
}

TEST(ContentHash, SensitiveToEveryPart) {
  const auto base = make_tiny();
  const auto h = content_hash(base);

  auto ds = base;
  ds.config.seed ^= 1;
  EXPECT_NE(content_hash(ds), h);

  ds = base;
  ds.dasu[0].usage.samples += 1;
  EXPECT_NE(content_hash(ds), h);

  ds = base;
  ds.upgrades[0].after.samples_no_bt += 1;
  EXPECT_NE(content_hash(ds), h);

  ds = base;
  ds.qc.rows[0].detail += "!";
  EXPECT_NE(content_hash(ds), h);

  ds = base;
  ds.markets.at("US").price_capacity_r += 0.1;
  EXPECT_NE(content_hash(ds), h);

  // NaN-carrying datasets still hash stably (operator== could not even
  // compare these records to themselves).
  EXPECT_EQ(content_hash(base), h);
}

TEST(Fingerprint, HexRoundTrip) {
  const Fingerprint fp{0x0123456789ABCDEFull, 0xFEDCBA9876543210ull};
  EXPECT_EQ(fp.hex(), "0123456789abcdeffedcba9876543210");
  const auto parsed = Fingerprint::from_hex(fp.hex());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, fp);

  EXPECT_FALSE(Fingerprint::from_hex("").has_value());
  EXPECT_FALSE(Fingerprint::from_hex("012345").has_value());
  EXPECT_FALSE(
      Fingerprint::from_hex("0123456789abcdeffedcba987654321G").has_value());
  EXPECT_FALSE(
      Fingerprint::from_hex("0123456789ABCDEFFEDCBA9876543210").has_value());
}

TEST(Fingerprint, KeysSimulationInputsNotParallelism) {
  const auto& world = market::World::builtin();
  dataset::StudyConfig config;
  config.seed = 11;
  const auto base = dataset_fingerprint(config, world);
  EXPECT_EQ(dataset_fingerprint(config, world), base);

  // threads is explicitly NOT part of the key: output is thread-invariant.
  auto threads = config;
  threads.threads = 8;
  EXPECT_EQ(dataset_fingerprint(threads, world), base);

  auto seed = config;
  seed.seed = 12;
  EXPECT_NE(dataset_fingerprint(seed, world), base);

  auto scale = config;
  scale.population_scale *= 2;
  EXPECT_NE(dataset_fingerprint(scale, world), base);

  auto faulted = config;
  faulted.faults.row_corrupt_probability = 0.01;
  EXPECT_NE(dataset_fingerprint(faulted, world), base);

  auto ablated = config;
  ablated.disable_quality_effect = true;
  EXPECT_NE(dataset_fingerprint(ablated, world), base);

  auto coverage = config;
  coverage.coverage.min_samples += 1;
  EXPECT_NE(dataset_fingerprint(coverage, world), base);

  const std::vector<std::string> codes{"US", "JP"};
  const auto small_world = world.subset(codes);
  EXPECT_NE(dataset_fingerprint(config, small_world), base);
}

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::path{::testing::TempDir()} /
            ("bblab_cache_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  /// make_tiny()'s config with another seed (so another run key).
  static dataset::StudyConfig config(std::uint64_t seed = 77) {
    auto c = make_tiny().config;
    c.seed = seed;
    return c;
  }

  /// Shard 3: Dasu US in 2012, users 1..2, which make_tiny()'s Dasu
  /// record belongs to.
  static dataset::ShardSpec spec() {
    dataset::ShardSpec s;
    s.index = 3;
    s.kind = dataset::ShardSpec::Kind::kDasu;
    s.country_code = "US";
    s.year_index = 1;
    s.base_id = 1;
    s.n_users = 2;
    return s;
  }

  static dataset::ShardOutput output() {
    dataset::ShardOutput out;
    out.records = make_tiny().dasu;
    out.qc.note_admitted(1);
    out.qc.add(2, QuarantineReason::kInjectedFault, "user 2", "planned failure");
    return out;
  }

  /// The shard's output as a dataset, for content_hash comparisons.
  static std::uint64_t hash_of(const dataset::ShardOutput& out) {
    dataset::StudyDataset ds;
    ds.dasu = out.records;
    ds.upgrades = out.upgrades;
    ds.qc = out.qc;
    return content_hash(ds);
  }

  std::filesystem::path root_;
  const market::World& world_ = market::World::builtin();
};

TEST_F(CacheTest, MissThenHit) {
  const ArtifactCache cache{root_};
  EXPECT_FALSE(cache.load(config(), world_, spec()).has_value());

  cache.publish(config(), world_, spec(), output());
  const auto key = dataset_fingerprint(config(), world_);
  EXPECT_TRUE(std::filesystem::exists(cache.segment_path(key, spec().index)));

  const auto hit = cache.load(config(), world_, spec());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hash_of(*hit), hash_of(output()));
  EXPECT_FALSE(cache.load(config(78), world_, spec()).has_value());
}

TEST_F(CacheTest, CorruptEntryIsEvictedAndTreatedAsMiss) {
  const ArtifactCache cache{root_};
  cache.publish(config(), world_, spec(), output());
  const auto path =
      cache.segment_path(dataset_fingerprint(config(), world_), spec().index);

  // Damage one payload byte in place.
  {
    std::fstream f{path, std::ios::in | std::ios::out | std::ios::binary};
    f.seekp(40);
    char c{};
    f.seekg(40);
    f.get(c);
    f.seekp(40);
    f.put(static_cast<char>(c ^ 0x10));
  }
  EXPECT_FALSE(cache.load(config(), world_, spec()).has_value());
  // The poisoned segment must be gone so the next publish repopulates it.
  EXPECT_FALSE(std::filesystem::exists(path));
  cache.publish(config(), world_, spec(), output());
  EXPECT_TRUE(cache.load(config(), world_, spec()).has_value());
}

TEST_F(CacheTest, ListRemoveClear) {
  const ArtifactCache cache{root_};
  EXPECT_TRUE(cache.list().empty());
  std::vector<Fingerprint> keys;
  for (const std::uint64_t seed : {77u, 78u, 79u}) {
    cache.publish(config(seed), world_, spec(), output());
    keys.push_back(dataset_fingerprint(config(seed), world_));
  }
  std::sort(keys.begin(), keys.end());

  const auto entries = cache.list();
  ASSERT_EQ(entries.size(), 3u);
  // Sorted by key for stable `cache ls` output; one entry per run.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].key, keys[i]);
    EXPECT_EQ(entries[i].path, cache.run_dir(keys[i]));
    EXPECT_GT(entries[i].size_bytes, 0u);
  }

  EXPECT_TRUE(cache.remove(keys[0]));
  EXPECT_FALSE(cache.remove(keys[0]));
  EXPECT_EQ(cache.list().size(), 2u);
  EXPECT_EQ(cache.clear(), 2u);
  EXPECT_TRUE(cache.list().empty());
}

TEST_F(CacheTest, WholeDatasetFilesOfOlderBuildsAreListedAndRemoved) {
  // Builds before per-shard segments kept a run as one whole-dataset
  // file, objects/<2 hex>/<30 hex>.bbs. Nothing reads it any more, but
  // ls must count it and rm and trim must remove it.
  const ArtifactCache cache{root_};
  const auto plant = [&](const Fingerprint& key) {
    auto path = cache.run_dir(key);
    path += ".bbs";
    std::filesystem::create_directories(path.parent_path());
    std::ofstream{path, std::ios::binary} << std::string(100, 'x');
    return path;
  };
  const auto alone = dataset_fingerprint(config(77), world_);
  const auto beside = dataset_fingerprint(config(78), world_);
  const auto alone_file = plant(alone);
  const auto beside_file = plant(beside);
  cache.publish(config(78), world_, spec(), output());

  auto entries = cache.list();
  ASSERT_EQ(entries.size(), 2u);  // one entry per key, not per file
  for (const auto& e : entries) {
    if (e.key == alone) {
      EXPECT_EQ(e.path, alone_file);
      EXPECT_EQ(e.size_bytes, 100u);
    } else {
      EXPECT_EQ(e.key, beside);
      EXPECT_EQ(e.path, cache.run_dir(beside));
      EXPECT_GT(e.size_bytes, 100u);  // the segment and the old file
    }
  }

  EXPECT_TRUE(cache.remove(alone));
  EXPECT_FALSE(std::filesystem::exists(alone_file));
  EXPECT_FALSE(cache.remove(alone));
  EXPECT_EQ(cache.clear(), 1u);
  EXPECT_FALSE(std::filesystem::exists(beside_file));
  EXPECT_TRUE(cache.list().empty());

  plant(alone);
  EXPECT_EQ(cache.trim(0), 1u);
  EXPECT_FALSE(std::filesystem::exists(alone_file));
}

TEST_F(CacheTest, TmpTtlOverrideMustBeAWholeNonNegativeNumber) {
  // A writer's temp file, ten seconds old. Only a finite, non-negative
  // whole-token TTL may shorten the 3600 s default enough to sweep it: a
  // misread override would delete a live writer's file.
  const auto tmp = root_ / "objects" / "ab" / "live.p1.0.tmp";
  const auto plant = [&] {
    std::filesystem::create_directories(tmp.parent_path());
    std::ofstream{tmp} << "in flight";
    std::filesystem::last_write_time(
        tmp, std::filesystem::file_time_type::clock::now() - std::chrono::seconds{10});
  };
  for (const char* ttl : {"-1", "nan", "inf", "5s", " 5", "0x1", "+5", "1e"}) {
    plant();
    ::setenv("BBLAB_CACHE_TMP_TTL_S", ttl, 1);
    const ArtifactCache cache{root_};
    EXPECT_TRUE(std::filesystem::exists(tmp)) << "TTL '" << ttl << "' swept a live file";
  }
  ::setenv("BBLAB_CACHE_TMP_TTL_S", "5", 1);
  const ArtifactCache cache{root_};
  EXPECT_FALSE(std::filesystem::exists(tmp));
  ::unsetenv("BBLAB_CACHE_TMP_TTL_S");
}

TEST_F(CacheTest, DefaultRootHonorsEnvOverride) {
  ::setenv("BBLAB_CACHE_DIR", root_.c_str(), 1);
  EXPECT_EQ(ArtifactCache::default_root(), root_);
  ::unsetenv("BBLAB_CACHE_DIR");
  const auto fallback = ArtifactCache::default_root();
  EXPECT_NE(fallback, root_);
  EXPECT_FALSE(fallback.empty());
}

}  // namespace
}  // namespace bblab::store
