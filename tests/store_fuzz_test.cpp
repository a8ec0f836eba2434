// Seeded mutation fuzz of the .bbs decoder *past* the checksums.
//
// The flip and truncation sweeps in store_test/store_view_test stop at
// the first line of defence: a damaged section fails its checksum before
// any decoder reads it. Here every mutated section (and footer) is
// re-sealed with a valid checksum, so the bytes reach the decoders and
// their own bounds checks, count guards and tag validation. The contract
// is the same: every outcome is either a dataset or a typed
// SnapshotError — never a crash, an out-of-bounds read (the `store`
// label runs this under ASan+UBSan), or another exception type.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/hash.h"
#include "dataset/generator.h"
#include "store/bbs.h"

namespace bblab::store {
namespace {

/// A few records in every section, so mutations land in repeated
/// columns, strings, nested plan lists and quarantine rows.
dataset::StudyDataset make_small() {
  dataset::StudyDataset ds;
  ds.config.seed = 5;
  ds.config.population_scale = 0.5;
  for (std::uint64_t i = 0; i < 3; ++i) {
    dataset::UserRecord r;
    r.user_id = 10 + i;
    r.source = i == 2 ? dataset::Source::kFcc : dataset::Source::kDasu;
    // A std::string, not the bare literal: GCC 12 raises a false
    // -Wmaybe-uninitialized on that assignment in Release builds.
    r.country_code = std::string{i == 1 ? "JP" : "US"};
    r.year = 2011 + static_cast<int>(i);
    r.capacity = Rate::from_mbps(4.0 * static_cast<double>(i + 1));
    r.usage.mean_down = Rate::from_kbps(300.0 + static_cast<double>(i));
    r.usage.samples = 100 + i;
    r.archetype = behavior::Archetype::kBtHeavy;
    r.bt_user = i == 0;
    (i == 2 ? ds.fcc : ds.dasu).push_back(r);
  }
  for (std::uint64_t i = 0; i < 2; ++i) {
    dataset::UpgradeObservation u;
    u.user_id = 20 + i;
    u.country_code = "DE";
    u.year = 2012;
    u.old_capacity = Rate::from_mbps(2);
    u.new_capacity = Rate::from_mbps(8);
    u.after.samples = 7 + i;
    ds.upgrades.push_back(u);
  }
  for (const char* code : {"US", "JP"}) {
    dataset::MarketSnapshot snap;
    snap.country = &market::World::builtin().at(code);
    std::vector<market::ServicePlan> plans;
    for (const double mbps : {10.0, 50.0}) {
      market::ServicePlan plan;
      plan.isp = "Acme";
      plan.country_code = code;
      plan.download = Rate::from_mbps(mbps);
      plan.upload = Rate::from_mbps(mbps / 10);
      plan.monthly_price = MoneyPpp::usd(mbps);
      plans.push_back(plan);
    }
    snap.catalog = market::PlanCatalog{std::move(plans)};
    ds.markets.emplace(code, std::move(snap));
  }
  ds.qc.note_admitted(4);
  ds.qc.add(1, QuarantineReason::kMalformedRow, "raw,row", "bad row");
  ds.qc.add(2, QuarantineReason::kBadValue, "x", "bad value");
  return ds;
}

std::string serialized(const dataset::StudyDataset& ds) {
  std::ostringstream os;
  write_snapshot(os, ds);
  return os.str();
}

// --- a test-side model of the framing (DESIGN.md §6.1) --------------------

constexpr std::size_t kHeaderSize = 16;
constexpr std::size_t kTrailerSize = 24;
constexpr std::uint64_t kChecksumSeed = 0xBB5C4EC6;

struct Section {
  std::string name;
  std::string payload;
};

struct Image {
  std::string header;
  std::vector<Section> sections;
};

std::uint64_t le64(const std::string& s, std::size_t at) {
  return core::load_le<std::uint64_t>(s.data() + at);
}

void put64(std::string& out, std::uint64_t v) {
  char le[8];
  core::store_le(le, v);
  out.append(le, sizeof le);
}

Image split(const std::string& file) {
  Image image{file.substr(0, kHeaderSize), {}};
  const std::uint64_t footer_size = le64(file, file.size() - kTrailerSize);
  const std::string footer =
      file.substr(file.size() - kTrailerSize - footer_size, footer_size);
  std::size_t pos = 8;
  for (std::uint64_t i = 0, n = le64(footer, 0); i < n; ++i) {
    const std::uint64_t len = le64(footer, pos);
    std::string name = footer.substr(pos + 8, len);
    pos += 8 + len;
    const std::uint64_t offset = le64(footer, pos);
    const std::uint64_t size = le64(footer, pos + 8);
    pos += 24;
    image.sections.push_back({std::move(name), file.substr(offset, size)});
  }
  return image;
}

std::uint64_t checksum(const std::string& bytes) {
  return core::checksum64(bytes.data(), bytes.size(), kChecksumSeed);
}

/// Lay out `image` as a file whose section and footer checksums are all
/// valid; `damage_footer` may then edit the footer before it is sealed.
template <typename DamageFooter>
std::string seal(const Image& image, DamageFooter&& damage_footer) {
  std::string out = image.header;
  std::string footer;
  put64(footer, image.sections.size());
  for (const auto& s : image.sections) {
    put64(footer, s.name.size());
    footer += s.name;
    put64(footer, out.size());
    put64(footer, s.payload.size());
    put64(footer, checksum(s.payload));
    out += s.payload;
  }
  damage_footer(footer);
  out += footer;
  put64(out, footer.size());
  put64(out, checksum(footer));
  out += "BBSFTR01";
  return out;
}

std::string seal(const Image& image) {
  return seal(image, [](std::string&) {});
}

TEST(SnapshotFuzz, ResealingModelReproducesTheWriter) {
  // If the model drifted from the writer (framing or checksum seed), every
  // mutant below would die at a checksum and the fuzz would test nothing.
  const std::string clean = serialized(make_small());
  EXPECT_EQ(seal(split(clean)), clean);
  EXPECT_EQ(split(clean).sections.size(), 6u);
}

// --- mutations ------------------------------------------------------------

/// Values a hostile or torn count/length field might hold.
std::uint64_t special_value(std::mt19937_64& gen, std::uint64_t size) {
  const std::uint64_t values[] = {0,
                                  1,
                                  2,
                                  size / 8,
                                  size / 8 + 1,
                                  size,
                                  std::uint64_t{1} << 32,
                                  std::uint64_t{1} << 63,
                                  std::numeric_limits<std::uint64_t>::max(),
                                  std::numeric_limits<std::uint64_t>::max() / 8,
                                  gen()};
  return values[gen() % std::size(values)];
}

/// Overwrite 8 bytes at `at` (clipped to the end of `bytes`) with `v`.
void overwrite64(std::string& bytes, std::size_t at, std::uint64_t v) {
  char le[8];
  core::store_le(le, v);
  for (std::size_t i = 0; i < 8 && at + i < bytes.size(); ++i) bytes[at + i] = le[i];
}

std::size_t pick(std::mt19937_64& gen, std::size_t n) {
  return n == 0 ? 0 : static_cast<std::size_t>(gen() % n);
}

enum class Mutation { kFlip, kTruncate, kExtend, kSplice, kCount, kFooter };

void mutate_payload(Mutation m, Image& image, std::size_t victim,
                    std::mt19937_64& gen) {
  std::string& p = image.sections[victim].payload;
  switch (m) {
    case Mutation::kFlip:
      for (std::size_t k = 0, n = 1 + pick(gen, 4); k < n && !p.empty(); ++k) {
        p[pick(gen, p.size())] ^= static_cast<char>(1 + pick(gen, 255));
      }
      break;
    case Mutation::kTruncate:
      p.resize(pick(gen, p.size()));
      break;
    case Mutation::kExtend:
      for (std::size_t k = 0, n = 1 + pick(gen, 16); k < n; ++k) {
        p.push_back(static_cast<char>(gen()));
      }
      break;
    case Mutation::kSplice: {
      const std::string& donor = image.sections[pick(gen, image.sections.size())].payload;
      const std::size_t from = pick(gen, donor.size());
      const std::string chunk = donor.substr(from, 1 + pick(gen, 32));
      const std::size_t at = pick(gen, p.size() + 1);
      if (gen() % 2 == 0) {
        p.insert(at, chunk);
      } else {
        p.replace(at, chunk.size(), chunk);
      }
      break;
    }
    case Mutation::kCount: {
      // Half the time the section's record count (the first u64, or the
      // second for qc, after `admitted`); otherwise any offset, which hits
      // string lengths and plan counts at every alignment.
      const bool qc = image.sections[victim].name == "qc";
      const std::size_t at = gen() % 2 == 0 ? (qc ? 8 : 0) : pick(gen, p.size());
      overwrite64(p, at, special_value(gen, p.size()));
      break;
    }
    case Mutation::kFooter:
      break;
  }
}

TEST(SnapshotFuzz, ResealedMutantsDecodeOrFailTyped) {
  const std::string clean = serialized(make_small());
  const Image pristine = split(clean);
  std::mt19937_64 gen{20141105};
  constexpr int kBudget = 6000;

  std::map<QuarantineReason, int> rejected;
  int accepted = 0;
  for (int iter = 0; iter < kBudget; ++iter) {
    Image image = pristine;
    const auto m = static_cast<Mutation>(pick(gen, 6));
    std::string bytes;
    if (m == Mutation::kFooter) {
      bytes = seal(image, [&](std::string& footer) {
        if (gen() % 2 == 0) {
          footer[pick(gen, footer.size())] ^= static_cast<char>(1 + pick(gen, 255));
        } else {
          overwrite64(footer, pick(gen, footer.size()), special_value(gen, footer.size()));
        }
      });
    } else {
      for (std::size_t k = 0, n = 1 + pick(gen, 2); k < n; ++k) {
        mutate_payload(m, image, pick(gen, image.sections.size()), gen);
      }
      bytes = seal(image);
    }

    try {
      const auto ds = read_snapshot(bytes);
      ++accepted;
      // An accepted mutant is a real dataset: it round-trips like one.
      EXPECT_EQ(content_hash(read_snapshot(serialized(ds))), content_hash(ds))
          << "iteration " << iter;
    } catch (const SnapshotError& e) {
      ++rejected[e.reason()];
      // Payload mutants carry valid checksums, so the decoder (not the
      // checksum) must be what rejects them.
      if (m != Mutation::kFooter) {
        EXPECT_NE(e.reason(), QuarantineReason::kChecksumMismatch)
            << "iteration " << iter << ": " << e.what();
      }
    } catch (const std::exception& e) {
      FAIL() << "iteration " << iter << " escaped the typed-error contract: "
             << e.what();
    }
  }
  // The budget must actually exercise the decoder's branches: framing and
  // bounds rejections, semantic rejections, and mutants that still decode.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected[QuarantineReason::kFormatMismatch], 0);
  EXPECT_GT(rejected[QuarantineReason::kBadValue], 0);
}

}  // namespace
}  // namespace bblab::store
