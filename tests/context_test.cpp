// analysis::Context computes each per-network fact once and shares it. With
// counting on, the fixpoint (`reachability.runs`) and dataflow
// (`dataflow.runs`) counters are read after one audit report, one
// rule-engine run and one pipeline report, at pool sizes 1, 2 and 8. The
// facts are built lazily on whichever pool thread asks first, so the suite
// also runs under the CI TSan job.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/context.h"
#include "analysis/dataflow.h"
#include "analysis/header_space.h"
#include "analysis/reachability.h"
#include "analysis/rules.h"
#include "config/writer.h"
#include "graph/instances.h"
#include "model/network.h"
#include "obs/obs.h"
#include "pipeline/pipeline.h"
#include "serve/queries.h"
#include "synth/archetypes.h"
#include "synth/emit.h"
#include "util/thread_pool.h"

namespace rd::analysis {
namespace {

constexpr std::size_t kPoolSizes[] = {1, 2, 8};

/// Two IGP instances glued by redistribution under a BGP border, with
/// `intents` "! rd-intent" lines between distinct LAN /24s, each declared
/// on the source LAN's router.
std::vector<config::RouterConfig> enterprise_configs(std::size_t intents) {
  synth::TextbookEnterpriseParams params;
  params.routers = 16;
  params.igp_instances = 2;
  auto configs = synth::make_textbook_enterprise(params).configs;
  std::vector<std::pair<std::size_t, ip::Prefix>> lans;
  std::set<ip::Prefix> seen;
  for (std::size_t r = 0; r < configs.size(); ++r) {
    for (const auto& itf : configs[r].interfaces) {
      if (itf.address && itf.address->mask.length() == 24 &&
          seen.insert(itf.address->subnet()).second) {
        lans.emplace_back(r, itf.address->subnet());
      }
    }
  }
  for (std::size_t i = 0; i < intents && i + 1 < lans.size(); ++i) {
    config::IntentDirective intent;
    intent.expect_reachable = i % 2 == 0;
    intent.source = lans[i].second;
    intent.destination = lans[i + 1].second;
    configs[lans[i].first].intents.push_back(intent);
  }
  return configs;
}

std::vector<std::string> texts_of(
    const std::vector<config::RouterConfig>& configs) {
  std::vector<std::string> texts;
  for (const auto& cfg : configs) texts.push_back(config::write_config(cfg));
  return texts;
}

class AnalysisContext : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override {
    reset();
    obs::Registry::instance().set_counting(false);
  }

  /// Zero every counter and count from here on.
  static void reset() {
    obs::Registry::instance().set_counting(false);
    obs::Registry::instance().reset();
    obs::Registry::instance().set_counting(true);
  }
  static std::uint64_t count(const char* name) {
    return obs::counter(name).value();
  }
};

TEST_F(AnalysisContext, TestNetworkExercisesEveryFact) {
  const auto network = model::Network::build(synth::reparse(
      enterprise_configs(4)));
  const auto graph = graph::InstanceGraph::build(network);
  const Context ctx(network, graph);
  EXPECT_FALSE(ctx.dataflow().edges().empty())
      << "needs cross-instance redistribution";
  EXPECT_EQ(ctx.intents().size(), 4u);
  EXPECT_FALSE(ctx.routes().instance_routes(0).empty());
}

TEST_F(AnalysisContext, AuditReportComputesEachFactOnce) {
  const auto network = model::Network::build(synth::reparse(
      enterprise_configs(4)));
  const auto graph = graph::InstanceGraph::build(network);
  for (const auto threads : kPoolSizes) {
    util::ThreadPool pool(threads);
    reset();
    const auto report = serve::audit_report(network, graph, pool);
    ASSERT_NE(report.output.find("=== Intent assertions ==="),
              std::string::npos);
    const auto scenarios = count("sweep.scenarios");
    EXPECT_GT(scenarios, 0u);
    // The what-if sweep runs one fixpoint per degraded network of its own;
    // the baseline fixpoint runs once for the route-load section, the
    // intent section and RD052 together.
    EXPECT_EQ(count("reachability.runs"), 1 + scenarios) << threads;
    EXPECT_EQ(count("dataflow.runs"), 1u) << threads;
  }
}

TEST_F(AnalysisContext, RuleEngineRunsEachFactOncePerRun) {
  const auto engine = RuleEngine::with_default_rules();
  for (const std::size_t intents : {4u, 0u}) {
    const auto network = model::Network::build(synth::reparse(
        enterprise_configs(intents)));
    const auto graph = graph::InstanceGraph::build(network);
    for (const auto threads : kPoolSizes) {
      util::ThreadPool pool(threads);
      reset();
      engine.run(network, graph, pool);
      // RD060 and RD062 share one dataflow; RD052 asks for the fixpoint
      // only when some config declares an intent.
      EXPECT_EQ(count("dataflow.runs"), 1u) << threads;
      EXPECT_EQ(count("reachability.runs"), intents == 0 ? 0u : 1u)
          << intents << " intents, " << threads << " threads";
    }
  }
}

TEST_F(AnalysisContext, PipelineReportComputesEachFactOnce) {
  const std::vector<pipeline::FleetInput> inputs = {
      {"enterprise", texts_of(enterprise_configs(4))}};
  for (const auto threads : kPoolSizes) {
    util::ThreadPool pool(threads);
    reset();
    const auto reports = pipeline::analyze_fleet_parallel(inputs, pool);
    ASSERT_EQ(reports.size(), 1u);
    ASSERT_NE(reports[0].json.find("\"intents\""), std::string::npos);
    EXPECT_EQ(count("reachability.runs"), 1u) << threads;
    EXPECT_EQ(count("dataflow.runs"), 1u) << threads;
  }
}

TEST_F(AnalysisContext, ConcurrentReadersShareOneFactEach) {
  const auto network = model::Network::build(synth::reparse(
      enterprise_configs(4)));
  const auto graph = graph::InstanceGraph::build(network);
  util::ThreadPool pool(8);
  const Context ctx(network, graph);
  constexpr std::size_t kReaders = 48;
  std::vector<const void*> seen(kReaders, nullptr);
  pool.run_indexed(kReaders, [&](std::size_t i) {
    switch (i % 3) {
      case 0: seen[i] = &ctx.routes(); break;
      case 1: seen[i] = &ctx.intents(); break;
      default: seen[i] = &ctx.dataflow(); break;
    }
  });
  for (std::size_t i = 3; i < kReaders; ++i) {
    EXPECT_EQ(seen[i], seen[i % 3]) << i;
  }
  EXPECT_EQ(count("reachability.runs"), 1u);
  EXPECT_EQ(count("dataflow.runs"), 1u);
}

}  // namespace
}  // namespace rd::analysis
