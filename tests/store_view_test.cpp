// The zero-copy SnapshotView must uphold the decoder's corruption
// contract on a real mapping: every single-byte flip and every truncation
// of a snapshot file is a typed SnapshotError at (or before) the moment
// bytes would be handed out — never a crash, never silently wrong data
// through a view. These tests mirror store_test.cpp's exhaustive
// flip/truncation suites over an in-memory byte image, but through mmap +
// SnapshotView.
#include "store/bbs.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "dataset/generator.h"

namespace bblab::store {
namespace {

/// Small dataset that populates every section (config/dasu/fcc/upgrades/
/// markets/qc), so flips land in each of them.
dataset::StudyDataset make_tiny() {
  dataset::StudyDataset ds;
  ds.config.seed = 77;
  ds.config.population_scale = 0.25;

  dataset::UserRecord r;
  r.user_id = 1;
  r.source = dataset::Source::kDasu;
  r.country_code = "US";
  r.region = market::Region::kNorthAmerica;
  r.year = 2012;
  r.capacity = Rate::from_mbps(10);
  r.rtt_ms = 43.5;
  r.loss = -0.0;
  r.upgrade_cost_per_mbps = std::numeric_limits<double>::quiet_NaN();
  ds.dasu.push_back(r);
  r.user_id = 2;
  r.source = dataset::Source::kFcc;
  ds.fcc.push_back(r);

  dataset::UpgradeObservation u;
  u.user_id = 2;
  u.country_code = "JP";
  u.year = 2013;
  u.old_capacity = Rate::from_mbps(8);
  u.new_capacity = Rate::from_mbps(16);
  ds.upgrades.push_back(u);

  dataset::MarketSnapshot snap;
  snap.country = &market::World::builtin().at("US");
  market::ServicePlan plan;
  plan.isp = "Acme";
  plan.country_code = "US";
  plan.download = Rate::from_mbps(50);
  plan.monthly_price = MoneyPpp::usd(49.99);
  snap.catalog = market::PlanCatalog{{plan}};
  ds.markets.emplace("US", std::move(snap));

  ds.qc.note_admitted(5);
  ds.qc.add(3, QuarantineReason::kMalformedRow, "raw", "bad row");
  return ds;
}

std::string serialized(const dataset::StudyDataset& ds) {
  std::ostringstream os;
  write_snapshot(os, ds);
  return os.str();
}

class SnapshotViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path{::testing::TempDir()} /
           ("bbs_view_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path write_file(const std::string& bytes,
                                   const std::string& name = "snap.bbs") {
    const auto path = dir_ / name;
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  std::filesystem::path dir_;
};

TEST_F(SnapshotViewTest, DecodesToTheWrittenDataset) {
  const auto ds = make_tiny();
  const auto view = SnapshotView::open(write_file(serialized(ds)));
  EXPECT_EQ(content_hash(view.dataset()), content_hash(ds));
}

TEST_F(SnapshotViewTest, SectionViewsAreZeroCopy) {
  const auto path = write_file(serialized(make_tiny()));
  const auto view = SnapshotView::open(path);
  // Two calls return views at the same address: the bytes come straight
  // out of the mapping, not out of a per-call buffer.
  const auto a = view.section("config");
  const auto b = view.section("config");
  EXPECT_EQ(a.data(), b.data());
  EXPECT_FALSE(a.empty());
  // And distinct sections are distinct slices of that one mapping.
  EXPECT_NE(view.section("dasu").data(), a.data());
}

TEST_F(SnapshotViewTest, ConfigOnlyDecodeMatchesFullDecode) {
  const auto path = write_file(serialized(make_tiny()));
  const auto view = SnapshotView::open(path);
  EXPECT_EQ(view.config().seed, 77u);
  EXPECT_DOUBLE_EQ(view.config().population_scale, 0.25);
}

TEST_F(SnapshotViewTest, UnknownSectionIsTypedFormatError) {
  const auto path = write_file(serialized(make_tiny()));
  const auto view = SnapshotView::open(path);
  try {
    (void)view.section("no-such-section");
    FAIL() << "unknown section handed out a view";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.reason(), QuarantineReason::kFormatMismatch);
  }
}

// The serve bugfix contract: a bit-flipped section must be rejected
// *before* a view of it is handed out. Exhaustive over every byte of the
// file with two masks, exactly like the byte-image reader's test.
TEST_F(SnapshotViewTest, EveryByteFlipIsDetectedThroughViews) {
  const std::string clean = serialized(make_tiny());
  {
    const auto path = write_file(clean);
    EXPECT_NO_THROW((void)SnapshotView::open(path).dataset());
  }
  std::size_t checked = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x80}) {
      std::string damaged = clean;
      damaged[i] = static_cast<char>(damaged[i] ^ mask);
      const auto path = write_file(damaged);
      EXPECT_THROW(
          {
            const auto view = SnapshotView::open(path);
            (void)view.dataset();
          },
          SnapshotError)
          << "flip survived the view reader at byte " << i << " mask "
          << int(mask);
      ++checked;
    }
  }
  EXPECT_EQ(checked, clean.size() * 2);
}

// A file cut at any byte boundary must fail with the typed error and
// nothing else — bounds-checked view slicing, not a SIGBUS or bad_alloc.
TEST_F(SnapshotViewTest, TruncationAtEveryLengthIsATypedError) {
  const std::string clean = serialized(make_tiny());
  ASSERT_GT(clean.size(), 100u);
  for (std::size_t keep = 0; keep < clean.size(); ++keep) {
    const auto path = write_file(clean.substr(0, keep));
    try {
      const auto view = SnapshotView::open(path);
      (void)view.dataset();
      FAIL() << "prefix of " << keep << " bytes accepted through the view";
    } catch (const SnapshotError&) {
      // the one permitted outcome
    } catch (const IoError&) {
      // also fine for the empty/unmappable prefix
    } catch (const std::exception& e) {
      FAIL() << "prefix of " << keep
             << " bytes escaped the typed-error contract: " << e.what();
    }
  }
}

TEST_F(SnapshotViewTest, ReadSnapshotFileUsesTheSameContract) {
  // read_snapshot_file routes through the mmap path; flips must still be
  // typed errors end to end (spot checks: header, middle, trailer).
  const std::string clean = serialized(make_tiny());
  for (const std::size_t i :
       {std::size_t{0}, clean.size() / 2, clean.size() - 1}) {
    std::string damaged = clean;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x01);
    const auto path = write_file(damaged);
    EXPECT_THROW((void)read_snapshot_file(path), SnapshotError) << i;
  }
  const auto path = write_file(clean);
  EXPECT_EQ(content_hash(read_snapshot_file(path)),
            content_hash(make_tiny()));
}

}  // namespace
}  // namespace bblab::store
