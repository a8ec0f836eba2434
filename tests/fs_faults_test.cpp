#include "faults/fs_faults.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/fs.h"
#include "core/rng.h"

namespace bblab::faults {
namespace {

std::filesystem::path test_dir(const std::string& name) {
  const auto dir = std::filesystem::path{::testing::TempDir()} / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(FsFaultPlan, ParsesTermsAndRoundTripsSummary) {
  const auto plan = FsFaultPlan::parse("eio@3x2,enospc@5,torn@9,crash@12,kill@4");
  ASSERT_EQ(plan.faults.size(), 5u);
  EXPECT_EQ(plan.faults[0].kind, FsFault::Kind::kEio);
  EXPECT_EQ(plan.faults[0].at, 3u);
  EXPECT_EQ(plan.faults[0].times, 2);
  EXPECT_EQ(plan.faults[1].kind, FsFault::Kind::kEnospc);
  EXPECT_EQ(plan.faults[1].times, 1);
  EXPECT_EQ(plan.faults[4].kind, FsFault::Kind::kKill);
  EXPECT_EQ(plan.summary(), "eio@3x2 enospc@5 torn@9 crash@12 kill@4");
  EXPECT_TRUE(FsFaultPlan::parse("").empty());
  const auto extremes = FsFaultPlan::parse("eio@18446744073709551615x2147483647");
  ASSERT_EQ(extremes.faults.size(), 1u);
  EXPECT_EQ(extremes.faults[0].at, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(extremes.faults[0].times, std::numeric_limits<int>::max());
}

TEST(FsFaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)FsFaultPlan::parse("bogus@3"), InvalidArgument);
  EXPECT_THROW((void)FsFaultPlan::parse("eio"), InvalidArgument);
  EXPECT_THROW((void)FsFaultPlan::parse("eio@"), InvalidArgument);
  EXPECT_THROW((void)FsFaultPlan::parse("eio@x3"), InvalidArgument);
  EXPECT_THROW((void)FsFaultPlan::parse("eio@3x0"), InvalidArgument);
  EXPECT_THROW((void)FsFaultPlan::parse("eio@3xfoo"), InvalidArgument);
  EXPECT_THROW((void)FsFaultPlan::parse("@3"), InvalidArgument);
  // Index and count are digits only: a sign, a space or an out-of-range
  // value is a typed error, never a fault that silently cannot fire.
  for (const char* spec :
       {"eio@-1", "eio@+4", "eio@ 3", "eio@3 ", "eio@3x 2", "eio@3x-1", "eio@3x+2",
        "eio@\t3", "eio@18446744073709551616", "eio@3x2147483648", "eio@3x", "eio@3x2x2"}) {
    EXPECT_THROW((void)FsFaultPlan::parse(spec), InvalidArgument) << spec;
  }
}

// The grammar a spec must match term by term once parse() accepts it.
bool well_formed_term(const std::string& term) {
  static const std::regex grammar{"(enospc|eio|torn|crash|kill)@[0-9]+(x[0-9]+)?"};
  return std::regex_match(term, grammar);
}

std::string commas_for_spaces(std::string summary) {
  std::replace(summary.begin(), summary.end(), ' ', ',');
  return summary;
}

// Seeded mutation fuzz of the --fs-faults grammar: every mutant either
// parses into well-formed terms whose summary() parses back to the same
// plan, or throws InvalidArgument. Any other outcome (another exception
// type, an accepted sign or space) fails.
TEST(FsFaultPlan, MutationFuzzParsesAndRoundTripsOrThrowsTyped) {
  const std::vector<std::string> seeds{
      "eio@3x2,enospc@5,torn@9,crash@12,kill@4", "eio@0", "torn@18446744073709551615",
      "crash@7x2147483647", "kill@2,,eio@1,"};
  const std::string alphabet = "0123456789@x,-+ \t\nabeiokrnpst\xff";
  const std::vector<std::string> splices{"-1", "+4", " ", "x", "@", ",",
                                         "99999999999999999999", "2147483648",
                                         "18446744073709551616", "enospc@", "x0"};
  Rng rng{20240519};
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string spec = seeds[rng.index(seeds.size())];
    const int edits = 1 + static_cast<int>(rng.index(3));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = rng.index(spec.size() + 1);
      switch (rng.index(4)) {
        case 0:
          spec.insert(pos, 1, alphabet[rng.index(alphabet.size())]);
          break;
        case 1:
          if (pos < spec.size()) spec.erase(pos, 1 + rng.index(3));
          break;
        case 2:
          if (pos < spec.size()) spec[pos] = alphabet[rng.index(alphabet.size())];
          break;
        default:
          spec.insert(pos, splices[rng.index(splices.size())]);
          break;
      }
    }
    FsFaultPlan plan;
    try {
      plan = FsFaultPlan::parse(spec);
    } catch (const InvalidArgument&) {
      ++rejected;
      continue;
    }
    ++accepted;
    std::istringstream terms{spec};
    std::string term;
    while (std::getline(terms, term, ',')) {
      if (!term.empty()) {
        EXPECT_TRUE(well_formed_term(term)) << "accepted '" << spec << "'";
      }
    }
    for (const FsFault& fault : plan.faults) EXPECT_GE(fault.times, 1) << spec;
    const FsFaultPlan again = FsFaultPlan::parse(commas_for_spaces(plan.summary()));
    ASSERT_EQ(again.faults.size(), plan.faults.size()) << spec;
    for (std::size_t f = 0; f < plan.faults.size(); ++f) {
      EXPECT_EQ(again.faults[f].kind, plan.faults[f].kind) << spec;
      EXPECT_EQ(again.faults[f].at, plan.faults[f].at) << spec;
      EXPECT_EQ(again.faults[f].times, plan.faults[f].times) << spec;
    }
    EXPECT_EQ(again.summary(), plan.summary()) << spec;
  }
  // Both outcomes must be exercised, or the fuzz is not probing the edge.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

TEST(FaultFileSystem, EioIsTransientAndWritesNothing) {
  const auto dir = test_dir("fsf_eio");
  FaultFileSystem fs{FsFaultPlan::parse("eio@0")};
  EXPECT_THROW(fs.write_file(dir / "a", "payload"), TransientIoError);
  EXPECT_FALSE(std::filesystem::exists(dir / "a"));
  // The fault fired once; the retried operation (a fresh op index) lands.
  fs.write_file(dir / "a", "payload");
  EXPECT_EQ(slurp(dir / "a"), "payload");
}

TEST(FaultFileSystem, EnospcIsPermanentAndLeavesAPrefix) {
  const auto dir = test_dir("fsf_enospc");
  FaultFileSystem fs{FsFaultPlan::parse("enospc@0")};
  try {
    fs.write_file(dir / "a", "0123456789");
    FAIL() << "expected IoError";
  } catch (const TransientIoError&) {
    FAIL() << "ENOSPC must not be classified transient";
  } catch (const IoError&) {
  }
  EXPECT_EQ(slurp(dir / "a"), "01234");  // half landed, as a torn disk would
}

TEST(FaultFileSystem, TornWriteSucceedsSilentlyWithHalfTheBytes) {
  const auto dir = test_dir("fsf_torn");
  FaultFileSystem fs{FsFaultPlan::parse("torn@0")};
  fs.write_file(dir / "a", "0123456789");  // no throw: the lie is the point
  EXPECT_EQ(slurp(dir / "a"), "01234");
}

TEST(FaultFileSystem, CrashBeforeRenameLeavesTmpOnly) {
  const auto dir = test_dir("fsf_crash");
  FaultFileSystem fs{FsFaultPlan::parse("crash@1")};
  fs.write_file(dir / "a.tmp", "payload");  // op 0: clean
  EXPECT_THROW(fs.rename(dir / "a.tmp", dir / "a"), InjectedCrash);  // op 1
  EXPECT_TRUE(std::filesystem::exists(dir / "a.tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir / "a"));
}

TEST(FaultFileSystem, InjectedCrashIsNotAnIoError) {
  // Retry/quarantine layers classify by type; a crash must fit neither.
  const auto dir = test_dir("fsf_crash_type");
  FaultFileSystem fs{FsFaultPlan::parse("crash@0")};
  try {
    fs.write_file(dir / "a", "payload");
    FAIL() << "expected InjectedCrash";
  } catch (const IoError&) {
    FAIL() << "InjectedCrash must not be catchable as IoError";
  } catch (const InjectedCrash&) {
  }
}

TEST(FaultFileSystem, FiresExactlyTimesThenRunsClean) {
  const auto dir = test_dir("fsf_times");
  FaultFileSystem fs{FsFaultPlan::parse("eio@0x2")};
  EXPECT_THROW(fs.write_file(dir / "a", "x"), TransientIoError);
  EXPECT_THROW(fs.write_file(dir / "a", "x"), TransientIoError);
  fs.write_file(dir / "a", "x");
  fs.write_file(dir / "b", "y");
  EXPECT_EQ(slurp(dir / "a"), "x");
  EXPECT_EQ(fs.ops(), 4u);
}

TEST(FaultFileSystem, ReadsDoNotConsumeOpIndices) {
  const auto dir = test_dir("fsf_reads");
  FaultFileSystem fs{FsFaultPlan::parse("eio@1")};
  fs.write_file(dir / "a", "payload");  // op 0
  EXPECT_EQ(fs.read_file(dir / "a"), "payload");
  EXPECT_TRUE(fs.exists(dir / "a"));
  EXPECT_EQ(fs.ops(), 1u);  // reads were free; the armed fault still waits
  EXPECT_THROW(fs.write_file(dir / "b", "x"), TransientIoError);  // op 1
}

TEST(FaultFileSystem, EmptyPlanIsTransparent) {
  const auto dir = test_dir("fsf_clean");
  FaultFileSystem fs{FsFaultPlan{}};
  fs.create_directories(dir / "sub");
  fs.write_file(dir / "sub" / "a", "payload");
  fs.rename(dir / "sub" / "a", dir / "sub" / "b");
  EXPECT_EQ(fs.read_file(dir / "sub" / "b"), "payload");
  EXPECT_TRUE(fs.remove(dir / "sub" / "b"));
  EXPECT_FALSE(fs.remove(dir / "sub" / "b"));
}

TEST(FileSystem, InstanceInjectionIsProcessWide) {
  FaultFileSystem fs{FsFaultPlan{}};
  EXPECT_EQ(&core::FileSystem::instance(), &core::FileSystem::system());
  core::FileSystem::set_instance(&fs);
  EXPECT_EQ(&core::FileSystem::instance(), &fs);
  core::FileSystem::set_instance(nullptr);
  EXPECT_EQ(&core::FileSystem::instance(), &core::FileSystem::system());
}

}  // namespace
}  // namespace bblab::faults
