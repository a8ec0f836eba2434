// The fault-injection layer's contract: everything about a FaultPlan is
// deterministic in (seed, stream id), knobs never perturb each other's
// randomness, and the damage it does to samples and CSV text is exactly
// the documented damage.
#include "faults/fault_plan.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/units.h"
#include "measurement/pipeline.h"

namespace bblab::faults {
namespace {

TEST(FaultPlan, DefaultsAreClean) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.any_series_faults());
  EXPECT_FALSE(plan.any_csv_faults());
  EXPECT_EQ(plan.summary(), "no faults");
}

TEST(FaultPlan, ParseSetsKnobs) {
  const auto plan = FaultPlan::parse(
      "churn=0.1,outage_h=3 blackout=0.2,reset=0.05 wrap=0.02,skew=0.5,"
      "skew_s=60,dup=0.01,corrupt=0.02,truncate=0.03,fail=0.04,seed=99");
  EXPECT_DOUBLE_EQ(plan.churn_probability, 0.1);
  EXPECT_DOUBLE_EQ(plan.mean_outage_hours, 3.0);
  EXPECT_DOUBLE_EQ(plan.blackout_probability, 0.2);
  EXPECT_DOUBLE_EQ(plan.reset_probability, 0.05);
  EXPECT_DOUBLE_EQ(plan.spurious_wrap_probability, 0.02);
  EXPECT_DOUBLE_EQ(plan.clock_skew_probability, 0.5);
  EXPECT_DOUBLE_EQ(plan.max_clock_skew_s, 60.0);
  EXPECT_DOUBLE_EQ(plan.row_duplicate_probability, 0.01);
  EXPECT_DOUBLE_EQ(plan.row_corrupt_probability, 0.02);
  EXPECT_DOUBLE_EQ(plan.row_truncate_probability, 0.03);
  EXPECT_DOUBLE_EQ(plan.household_failure_probability, 0.04);
  EXPECT_EQ(plan.seed, 99u);
  EXPECT_TRUE(plan.any_series_faults());
  EXPECT_TRUE(plan.any_csv_faults());
}

TEST(FaultPlan, ParseLayersOnBase) {
  FaultPlan base;
  base.seed = 7;
  base.churn_probability = 0.4;
  const auto plan = FaultPlan::parse("blackout=0.3", base);
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.churn_probability, 0.4);
  EXPECT_DOUBLE_EQ(plan.blackout_probability, 0.3);
}

TEST(FaultPlan, ParseRejectsGarbage) {
  EXPECT_THROW((void)FaultPlan::parse("bogus=1"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("churn"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("churn=abc"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("churn=0.1x"), InvalidArgument);
  // Out-of-range values are rejected, naming the key, instead of being
  // clamped or reversing a bound.
  const std::vector<std::pair<std::string, std::string>> out_of_range{
      {"churn=-3", "churn"},       {"corrupt=7", "corrupt"},
      {"blackout=1.5", "blackout"}, {"reset=-0.1", "reset"},
      {"wrap=2", "wrap"},          {"skew=1.01", "skew"},
      {"dup=-1", "dup"},           {"truncate=3", "truncate"},
      {"fail=1.5", "fail"},        {"outage_h=0", "outage_h"},
      {"outage_h=-2", "outage_h"}, {"blackout_h=0", "blackout_h"},
      {"blackout_h=-1", "blackout_h"}, {"skew_s=-5", "skew_s"},
      {"churn=0.1,corrupt=7", "corrupt"}};
  for (const auto& [spec, key] : out_of_range) {
    try {
      (void)FaultPlan::parse(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string{e.what()}.find("'" + key + "'"), std::string::npos)
          << spec << ": " << e.what();
    }
  }
  // The bounds themselves are in range.
  const auto edge = FaultPlan::parse("churn=0,fail=1,skew_s=0,outage_h=1e-3,blackout_h=0.5");
  EXPECT_EQ(edge.churn_probability, 0.0);
  EXPECT_EQ(edge.household_failure_probability, 1.0);
  EXPECT_EQ(edge.max_clock_skew_s, 0.0);
}

TEST(FaultPlan, ParseRejectsHexSignsAndNonFiniteValues) {
  // Values go through parse_number: the whole token, no '+', no hex; a
  // probability must be finite and the seed a whole unsigned number.
  for (const char* spec : {"churn=0x1p-2", "churn=+0.5", "churn=nan", "churn=inf",
                           "churn=.5.", "seed=1.5", "seed=-1", "seed=1e3"}) {
    EXPECT_THROW((void)FaultPlan::parse(spec), InvalidArgument) << spec;
  }
  EXPECT_EQ(FaultPlan::parse("seed=18446744073709551615").seed,
            18446744073709551615ull);
  EXPECT_DOUBLE_EQ(FaultPlan::parse("churn=.25").churn_probability, 0.25);
}

TEST(Materialize, DeterministicPerStream) {
  auto plan = FaultPlan::parse("churn=0.5,blackout=0.5,reset=0.5,wrap=0.5,skew=0.5");
  const auto a = materialize(plan, 42, 0.0, 7 * kDay);
  const auto b = materialize(plan, 42, 0.0, 7 * kDay);
  EXPECT_EQ(a.dropped.size(), b.dropped.size());
  for (std::size_t i = 0; i < a.dropped.size(); ++i) {
    EXPECT_EQ(a.dropped[i].begin, b.dropped[i].begin);
    EXPECT_EQ(a.dropped[i].end, b.dropped[i].end);
  }
  EXPECT_EQ(a.reset_time, b.reset_time);
  EXPECT_EQ(a.spurious_wrap_time, b.spurious_wrap_time);
  EXPECT_EQ(a.fail_household, b.fail_household);

  // Different streams diverge (probabilistically certain over 64 streams).
  bool any_different = false;
  for (std::uint64_t s = 0; s < 64 && !any_different; ++s) {
    const auto other = materialize(plan, 1000 + s, 0.0, 7 * kDay);
    any_different = other.fail_household != a.fail_household ||
                    other.dropped.size() != a.dropped.size() ||
                    other.reset_time != a.reset_time;
  }
  EXPECT_TRUE(any_different);
}

TEST(Materialize, KnobsDrawIndependently) {
  // Turning the wrap knob on must not move the churn windows: every
  // decision draws unconditionally in a fixed order.
  const auto just_churn = FaultPlan::parse("churn=1.0");
  const auto churn_and_wrap = FaultPlan::parse("churn=1.0,wrap=1.0,fail=1.0");
  for (std::uint64_t stream = 1; stream <= 32; ++stream) {
    const auto a = materialize(just_churn, stream, 0.0, 3 * kDay);
    const auto b = materialize(churn_and_wrap, stream, 0.0, 3 * kDay);
    ASSERT_EQ(a.dropped.size(), 1u) << stream;
    ASSERT_EQ(b.dropped.size(), 1u) << stream;
    EXPECT_EQ(a.dropped[0].begin, b.dropped[0].begin) << stream;
    EXPECT_EQ(a.dropped[0].end, b.dropped[0].end) << stream;
    EXPECT_FALSE(a.fail_household);
    EXPECT_TRUE(b.fail_household);
    EXPECT_TRUE(b.spurious_wrap_time.has_value());
  }
}

TEST(Materialize, EmptyPlanProducesNoFaults) {
  const auto hf = materialize(FaultPlan{}, 5, 0.0, kDay);
  EXPECT_TRUE(hf.dropped.empty());
  EXPECT_FALSE(hf.reset_time.has_value());
  EXPECT_FALSE(hf.spurious_wrap_time.has_value());
  EXPECT_FALSE(hf.fail_household);
}

TEST(FaultedSink, DropsZeroesAndSpikes) {
  struct Sample {
    SimTime time;
    Rate down;
    Rate up;
  };
  std::vector<Sample> got;
  HouseholdFaults hf;
  hf.dropped.push_back({60.0, 120.0});  // samples at t=60, t=90
  hf.reset_time = 155.0;                // in [150, 180): the t=150 sample
  hf.spurious_wrap_time = 215.0;        // in [210, 240): the t=210 sample
  const auto sink = measurement::faulted_sink(
      hf, [&](SimTime time, double, Rate down, Rate up, bool) {
        got.push_back(Sample{time, down, up});
      });
  for (int i = 0; i < 10; ++i) {
    sink(i * 30.0, 30.0, Rate::from_mbps(1.0), Rate::from_kbps(100.0), false);
  }

  ASSERT_EQ(got.size(), 8u);
  EXPECT_DOUBLE_EQ(got[1].time, 30.0);
  EXPECT_DOUBLE_EQ(got[2].time, 120.0);
  // The reset sample reports zero traffic.
  const auto& reset_sample = got[3];
  EXPECT_DOUBLE_EQ(reset_sample.time, 150.0);
  EXPECT_DOUBLE_EQ(reset_sample.down.bps(), 0.0);
  EXPECT_DOUBLE_EQ(reset_sample.up.bps(), 0.0);
  // The wrap sample gains exactly 2^32 bytes over its interval.
  const auto& wrap_sample = got[5];
  EXPECT_DOUBLE_EQ(wrap_sample.time, 210.0);
  const double expected =
      Rate::from_mbps(1.0).bps() + rate_over(4294967296.0, 30.0).bps();
  EXPECT_DOUBLE_EQ(wrap_sample.down.bps(), expected);
  EXPECT_DOUBLE_EQ(wrap_sample.up.bps(), Rate::from_kbps(100.0).bps());
  // Every other survivor passes through untouched.
  for (const std::size_t i : {0u, 1u, 2u, 4u, 6u, 7u}) {
    EXPECT_DOUBLE_EQ(got[i].down.bps(), Rate::from_mbps(1.0).bps()) << i;
  }
}

TEST(CorruptCsv, IdentityWithoutCsvFaults) {
  const std::string text = "h1,h2\n1,2\n3,4\n";
  EXPECT_EQ(corrupt_csv(text, FaultPlan{}), text);
  EXPECT_EQ(corrupt_csv(text, FaultPlan::parse("churn=0.9,fail=0.9")), text);
}

TEST(CorruptCsv, DeterministicAndHeaderPreserved) {
  std::string text = "user_id,value\n";
  for (int i = 0; i < 200; ++i) {
    text += std::to_string(i) + "," + std::to_string(i * 10) + "\n";
  }
  const auto plan = FaultPlan::parse("dup=0.1,corrupt=0.2,truncate=0.1,seed=5");
  const auto once = corrupt_csv(text, plan, 1);
  const auto twice = corrupt_csv(text, plan, 1);
  EXPECT_EQ(once, twice);
  EXPECT_NE(once, text);  // with 200 rows, some damage is certain
  EXPECT_EQ(once.substr(0, once.find('\n')), "user_id,value");
  // A different salt damages different rows.
  EXPECT_NE(corrupt_csv(text, plan, 2), once);
}

TEST(CorruptCsv, DuplicateEmitsCleanCopyFirst) {
  const std::string text = "h\nrow-a\nrow-b\n";
  const auto plan = FaultPlan::parse("dup=1.0");
  const auto out = corrupt_csv(text, plan);
  EXPECT_EQ(out, "h\nrow-a\nrow-a\nrow-b\nrow-b\n");
}

}  // namespace
}  // namespace bblab::faults
