// Tracing + run-report contract: the Chrome trace export must be valid
// JSON with well-formed nesting and distinct per-thread ids, disabled
// tracing must record nothing, and the run report must carry its schema
// version and every instrument kind.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "mini_json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/span.h"

namespace obs = bblab::obs;

namespace {

/// Tests share process-global span buffers; reset between tests and
/// leave tracing off for whoever runs next.
class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing(false);
    obs::set_trace_capacity(8192);
    obs::reset_spans_for_test();
  }
  void TearDown() override {
    obs::set_tracing(false);
    obs::set_trace_capacity(8192);
    obs::reset_spans_for_test();
  }
};

minijson::Value export_trace() {
  std::ostringstream out;
  obs::write_chrome_trace(out);
  return minijson::parse(out.str());
}

}  // namespace

TEST_F(ObsTraceTest, DisabledTracingRecordsNothing) {
  const std::size_t before = obs::recorded_span_count();
  {
    OBS_SPAN("should_not_record");
    OBS_SPAN("nor_this", std::string{"detail"});
  }
  EXPECT_EQ(obs::recorded_span_count(), before);
}

TEST_F(ObsTraceTest, ExportIsParseableChromeTraceJson) {
  obs::set_tracing(true);
  {
    OBS_SPAN("outer");
    { OBS_SPAN("inner", std::string{"shard 3"}); }
  }
  obs::set_tracing(false);
  const minijson::Value doc = export_trace();
  ASSERT_TRUE(doc.is_object());
  const auto& events = doc.at("traceEvents").array();
  ASSERT_GE(events.size(), 2u);
  std::set<std::string> names;
  for (const auto& ev : events) {
    ASSERT_TRUE(ev.is_object());
    names.insert(ev.at("name").str());
    EXPECT_EQ(ev.at("ph").str(), "X");
    EXPECT_GE(ev.at("ts").num(), 0.0);
    EXPECT_GE(ev.at("dur").num(), 0.0);
    EXPECT_EQ(ev.at("pid").num(), 1.0);
    EXPECT_GT(ev.at("tid").num(), 0.0);
  }
  EXPECT_TRUE(names.count("outer"));
  EXPECT_TRUE(names.count("inner"));
  // The label came through as the event's args.detail.
  const auto inner = std::find_if(events.begin(), events.end(), [](const auto& e) {
    return e.at("name").str() == "inner";
  });
  ASSERT_NE(inner, events.end());
  EXPECT_EQ(inner->at("args").at("detail").str(), "shard 3");
}

// Same-thread spans must nest: for any two events on one tid, their
// [ts, ts+dur] intervals are either disjoint or one contains the other.
TEST_F(ObsTraceTest, SameThreadSpansAreWellNested) {
  obs::set_tracing(true);
  for (int i = 0; i < 4; ++i) {
    OBS_SPAN("level1");
    OBS_SPAN("level2");
    OBS_SPAN("level3");
  }
  obs::set_tracing(false);
  const minijson::Value doc = export_trace();
  struct Interval {
    double lo, hi;
  };
  std::map<double, std::vector<Interval>> by_tid;
  for (const auto& ev : doc.at("traceEvents").array()) {
    by_tid[ev.at("tid").num()].push_back(
        {ev.at("ts").num(), ev.at("ts").num() + ev.at("dur").num()});
  }
  for (const auto& [tid, spans] : by_tid) {
    for (std::size_t a = 0; a < spans.size(); ++a) {
      for (std::size_t b = a + 1; b < spans.size(); ++b) {
        const bool disjoint =
            spans[a].hi <= spans[b].lo || spans[b].hi <= spans[a].lo;
        const bool a_in_b =
            spans[b].lo <= spans[a].lo && spans[a].hi <= spans[b].hi;
        const bool b_in_a =
            spans[a].lo <= spans[b].lo && spans[b].hi <= spans[a].hi;
        EXPECT_TRUE(disjoint || a_in_b || b_in_a)
            << "partial overlap on tid " << tid;
      }
    }
  }
}

TEST_F(ObsTraceTest, ThreadsGetDistinctTids) {
  obs::set_tracing(true);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] { OBS_SPAN("per_thread_work"); });
  }
  for (auto& t : threads) t.join();
  obs::set_tracing(false);
  const minijson::Value doc = export_trace();
  std::set<double> tids;
  for (const auto& ev : doc.at("traceEvents").array()) {
    if (ev.at("name").str() == "per_thread_work") tids.insert(ev.at("tid").num());
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(ObsTraceTest, CapacityBoundsBufferAndCountsDrops) {
  obs::set_trace_capacity(4);
  obs::reset_spans_for_test();  // re-arm this thread's buffer with the cap
  obs::set_tracing(true);
  const std::size_t dropped_before = obs::dropped_span_count();
  for (int i = 0; i < 32; ++i) {
    OBS_SPAN("burst");
  }
  obs::set_tracing(false);
  EXPECT_GT(obs::dropped_span_count(), dropped_before);
  // The truncation marker is exported in-band.
  std::ostringstream out;
  obs::write_chrome_trace(out);
  EXPECT_NE(out.str().find("dropped"), std::string::npos);
}

TEST_F(ObsTraceTest, AddedCapacityReachesExistingBuffers) {
  obs::set_trace_capacity(4);
  obs::reset_spans_for_test();
  obs::set_tracing(true);
  { OBS_SPAN("warm"); }  // this thread's buffer exists with capacity 4
  obs::add_trace_capacity(64);
  const std::size_t dropped_before = obs::dropped_span_count();
  {
    OBS_SPAN("outer");
    for (int i = 0; i < 32; ++i) {
      OBS_SPAN("inner");
    }
  }
  obs::set_tracing(false);
  EXPECT_EQ(obs::dropped_span_count(), dropped_before);
  const minijson::Value doc = export_trace();
  const auto& events = doc.at("traceEvents").array();
  EXPECT_TRUE(std::any_of(events.begin(), events.end(), [](const minijson::Value& ev) {
    return ev.at("name").str() == "outer";
  }));
}

TEST_F(ObsTraceTest, OpenSpanReportNamesInnermostSpan) {
  obs::set_tracing(true);
  {
    OBS_SPAN("outer_phase");
    OBS_SPAN("inner_detail", std::string{"shard 7"});
    const std::string report = obs::open_span_report();
    EXPECT_NE(report.find("inner_detail"), std::string::npos);
    EXPECT_NE(report.find("shard 7"), std::string::npos);
    EXPECT_EQ(report.find("outer_phase"), std::string::npos)
        << "report should name only the innermost open span";
  }
  obs::set_tracing(false);
  EXPECT_EQ(obs::open_span_report().find("inner_detail"), std::string::npos);
}

TEST_F(ObsTraceTest, RunReportIsSchemaVersionedJson) {
  obs::Registry::instance().counter("test.report.counter").add(3);
  obs::Registry::instance().gauge("test.report.gauge").set(1.5);
  obs::Registry::instance().histogram("test.report.hist").observe(2.0);
  obs::record_phase_ms("test-phase", 12.5);
  std::ostringstream out;
  obs::write_run_report(out, "figure fig1 --seed 1", 0);
  const minijson::Value doc = minijson::parse(out.str());
  EXPECT_EQ(doc.at("schema").str(), "bblab-run-report");
  EXPECT_EQ(doc.at("schema_version").num(),
            static_cast<double>(obs::kRunReportSchemaVersion));
  EXPECT_EQ(doc.at("command").str(), "figure fig1 --seed 1");
  EXPECT_EQ(doc.at("exit_code").num(), 0.0);
  EXPECT_GE(doc.at("wall_ms").num(), 0.0);
  EXPECT_GT(doc.at("peak_rss_kb").num(), 0.0);
  // Phases accumulate by name.
  EXPECT_GE(doc.at("phases").at("test-phase").at("ms").num(), 12.5);
  EXPECT_EQ(doc.at("counters").at("test.report.counter").num(), 3.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("test.report.gauge").num(), 1.5);
  const auto& hist = doc.at("histograms").at("test.report.hist");
  EXPECT_EQ(hist.at("bounds").array().size() + 1, hist.at("counts").array().size());
  EXPECT_GE(hist.at("count").num(), 1.0);
  EXPECT_TRUE(doc.at("spans").has("recorded"));
  EXPECT_TRUE(doc.at("spans").has("dropped"));
}

TEST_F(ObsTraceTest, SummaryMentionsHeadlineSections) {
  std::ostringstream out;
  obs::write_summary(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("[obs] wall"), std::string::npos);
  EXPECT_NE(s.find("[obs] shards:"), std::string::npos);
  EXPECT_NE(s.find("[obs] pool:"), std::string::npos);
}
