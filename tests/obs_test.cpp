// Tests for rd::obs (DESIGN.md §10): the trace file is valid JSON in the
// Chrome trace-event shape, spans nest correctly, counters hold the
// determinism contract (byte-identical across 1/2/8 threads), and the
// pipeline report's "metrics" section is stable across runs and engines.
//
// The registry is process-global state, so every test starts from
// Registry::reset() with both switches off and restores that on exit.

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "config/writer.h"
#include "obs/obs.h"
#include "pipeline/pipeline.h"
#include "synth/archetypes.h"
#include "util/json.h"

namespace {

using namespace rd;

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { disarm_and_reset(); }
  void TearDown() override { disarm_and_reset(); }

  static void disarm_and_reset() {
    obs::Registry::instance().set_tracing(false);
    obs::Registry::instance().set_counting(false);
    obs::Registry::instance().reset();
  }
};

std::vector<std::string> small_network_texts() {
  synth::TextbookEnterpriseParams params;
  params.routers = 8;
  std::vector<std::string> texts;
  for (const auto& cfg : synth::make_textbook_enterprise(params).configs) {
    texts.push_back(config::write_config(cfg));
  }
  return texts;
}

TEST_F(ObsTest, CounterIsGatedAndPointerStable) {
  auto& c = obs::counter("test.gated");
  c.add(5);
  EXPECT_EQ(c.value(), 0u) << "counting off: add must be a no-op";

  obs::Registry::instance().set_counting(true);
  c.add(5);
  c.add();
  EXPECT_EQ(c.value(), 6u);
  EXPECT_EQ(&c, &obs::counter("test.gated"))
      << "same name must return the same counter";

  obs::Registry::instance().reset();
  EXPECT_EQ(c.value(), 0u) << "reset zeroes values";
  EXPECT_EQ(&c, &obs::counter("test.gated")) << "reset keeps identities";
}

TEST_F(ObsTest, GaugeTracksLastAndMax) {
  obs::Registry::instance().set_counting(true);
  auto& g = obs::gauge("test.depth");
  g.set(7);
  g.set(3);
  EXPECT_EQ(g.last(), 3u);
  EXPECT_EQ(g.max(), 7u);
  g.add(10);
  EXPECT_EQ(g.last(), 13u);
  EXPECT_EQ(g.max(), 13u);
}

TEST_F(ObsTest, DisabledSpanRecordsNothing) {
  {
    obs::Span span("test.disabled", "test");
    span.arg("n", 1);
    EXPECT_FALSE(span.armed());
  }
  EXPECT_EQ(obs::Registry::instance().event_count(), 0u);
  EXPECT_EQ(obs::Registry::instance().trace_json().find("test.disabled"),
            std::string::npos);
}

TEST_F(ObsTest, TraceIsValidChromeTraceJson) {
  obs::Registry::instance().set_tracing(true);
  obs::Registry::instance().set_counting(true);
  obs::counter("test.events").add(3);
  {
    obs::Span outer("test.outer", "test");
    outer.arg("items", 42);
    outer.label("network \"a\"\\b");  // exercises string escaping
    obs::Span inner("test.inner", "test");
  }
  std::thread([] { obs::Span span("test.worker", "test"); }).join();
  obs::Registry::instance().set_tracing(false);

  const auto doc = util::Json::parse(obs::Registry::instance().trace_json());
  ASSERT_TRUE(doc.has_value()) << "trace must parse as JSON";
  const auto* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::size_t complete = 0, metadata = 0, counters = 0, workers = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const auto* event = events->at(i);
    const auto* ph = event->get("ph");
    ASSERT_NE(ph, nullptr);
    const std::string phase = *ph->if_string();
    if (phase == "X") {
      ++complete;
      EXPECT_GE(event->get("dur")->number_or(-1.0), 0.0);
      if (*event->get("name")->if_string() == "test.worker") ++workers;
    } else if (phase == "M") {
      ++metadata;
    } else if (phase == "C") {
      ++counters;
    }
  }
  EXPECT_EQ(complete, 3u) << "outer, inner, worker";
  EXPECT_EQ(workers, 1u);
  EXPECT_GE(metadata, 2u) << "thread-name metadata for both threads";
  EXPECT_GE(counters, 2u) << "final counter values + peak RSS";
}

TEST_F(ObsTest, SpansNestWithDepthAndContainment) {
  obs::Registry::instance().set_tracing(true);
  {
    obs::Span outer("test.parent", "test");
    obs::Span inner("test.child", "test");
  }
  obs::Registry::instance().set_tracing(false);

  const auto doc = util::Json::parse(obs::Registry::instance().trace_json());
  ASSERT_TRUE(doc.has_value());
  const auto* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);

  double parent_ts = -1, parent_dur = -1, child_ts = -1, child_dur = -1;
  long long parent_depth = -1, child_depth = -1;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const auto* event = events->at(i);
    const auto* name = event->get("name");
    if (name == nullptr || name->if_string() == nullptr) continue;
    if (*name->if_string() == "test.parent") {
      parent_ts = event->get("ts")->number_or(-1);
      parent_dur = event->get("dur")->number_or(-1);
      parent_depth = event->get("args")->get("depth")->int_or(-1);
    } else if (*name->if_string() == "test.child") {
      child_ts = event->get("ts")->number_or(-1);
      child_dur = event->get("dur")->number_or(-1);
      child_depth = event->get("args")->get("depth")->int_or(-1);
    }
  }
  ASSERT_GE(parent_ts, 0.0);
  ASSERT_GE(child_ts, 0.0);
  EXPECT_EQ(parent_depth, 0);
  EXPECT_EQ(child_depth, 1) << "child nests one level under parent";
  // The ns -> µs conversion keeps three decimals, so containment holds
  // exactly up to double-parsing noise.
  EXPECT_GE(child_ts, parent_ts - 0.001);
  EXPECT_LE(child_ts + child_dur, parent_ts + parent_dur + 0.001);
}

TEST_F(ObsTest, CountersByteIdenticalAcrossThreadCounts) {
  const auto texts = small_network_texts();
  std::vector<pipeline::FleetInput> inputs;
  inputs.push_back({"net-a", texts});
  inputs.push_back({"net-b", texts});

  std::vector<std::string> snapshots;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    disarm_and_reset();
    obs::Registry::instance().set_counting(true);
    util::ThreadPool pool(threads);
    const auto reports = pipeline::analyze_fleet_parallel(inputs, pool);
    ASSERT_EQ(reports.size(), 2u);
    snapshots.push_back(obs::Registry::instance().counters_json());
  }
  EXPECT_EQ(snapshots[0], snapshots[1])
      << "counters must count logical events, not scheduling";
  EXPECT_EQ(snapshots[0], snapshots[2]);
  EXPECT_NE(snapshots[0].find("parse.routers"), std::string::npos);
  EXPECT_NE(snapshots[0].find("rules.findings"), std::string::npos);
  EXPECT_NE(snapshots[0].find("reachability.routes"), std::string::npos);
}

TEST_F(ObsTest, MetricsSectionStableAcrossRunsAndEngines) {
  const auto texts = small_network_texts();

  // Serial (a one-thread pool) vs parallel: the report (metrics section
  // included) must be byte-identical every time.
  util::ThreadPool one(1);
  const auto serial = pipeline::analyze_fleet_parallel({{"net", texts}}, one);
  ASSERT_EQ(serial.size(), 1u);
  const auto again = pipeline::analyze_fleet_parallel({{"net", texts}}, one);
  EXPECT_EQ(serial[0].json, again[0].json);
  util::ThreadPool pool(4);
  const auto parallel = pipeline::analyze_fleet_parallel({{"net", texts}},
                                                         pool);
  ASSERT_EQ(parallel.size(), 1u);
  EXPECT_EQ(serial[0].json, parallel[0].json);

  // And the section actually carries the deterministic counts.
  const auto doc = util::Json::parse(serial[0].json);
  ASSERT_TRUE(doc.has_value());
  const auto* metrics = doc->get("metrics");
  ASSERT_NE(metrics, nullptr) << "report must have a metrics section";
  const auto* counters = metrics->get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->get("parse.routers")->int_or(-1), 8);
  EXPECT_GE(counters->get("rules.evaluated")->int_or(-1), 1);
  EXPECT_GE(counters->get("reachability.iterations")->int_or(-1), 1);
  EXPECT_GE(counters->get("model.links")->int_or(-1), 1);

  // The metrics section reports per-network values computed locally, so it
  // stays identical whether or not the global switches were ever flipped.
  disarm_and_reset();
  obs::Registry::instance().set_counting(true);
  const auto counted = pipeline::analyze_fleet_parallel({{"net", texts}}, one);
  EXPECT_EQ(serial[0].json, counted[0].json);
}

TEST_F(ObsTest, CountersJsonIsNameSortedAndCompact) {
  obs::Registry::instance().set_counting(true);
  obs::counter("zz.last").add(2);
  obs::counter("aa.first").add(1);
  // The registry outlives tests, so other counters may be present (at 0
  // after reset); assert shape and ordering, not the exact document.
  const auto json = obs::Registry::instance().counters_json();
  const auto first = json.find("\"aa.first\":1");
  const auto last = json.find("\"zz.last\":2");
  ASSERT_NE(first, std::string::npos) << json;
  ASSERT_NE(last, std::string::npos) << json;
  EXPECT_LT(first, last) << "name-sorted";
  EXPECT_EQ(json.find(' '), std::string::npos) << "compact";
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST_F(ObsTest, PeakRssIsReported) {
#if defined(__linux__)
  EXPECT_GT(obs::Registry::peak_rss_kb(), 0u);
#else
  SUCCEED();
#endif
}

}  // namespace
