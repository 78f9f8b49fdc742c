// analysis::Context computes each per-network fact once and shares it. With
// counting on, the fixpoint (`reachability.runs`) and dataflow
// (`dataflow.runs`) counters are read after one audit report, one
// rule-engine run and one pipeline report, at pool sizes 1, 2 and 8, and
// after a resident rdd fleet has answered one request of each analysis op
// that reads the context. The facts are built lazily on whichever pool
// thread asks first, so the suite also runs under the CI TSan job.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <latch>
#include <set>
#include <string>
#include <thread>
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
#include "serve/service.h"
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
    // The what-if sweep runs one fixpoint per scenario's failure Problem;
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

TEST_F(AnalysisContext, ConcurrentProbesShareEachCoveringTrie) {
  // The first probes of a shared fixpoint build each instance's covering
  // trie; threads that probe every instance at once must each get the
  // serial answers. Nothing else orders the threads, so under TSan an
  // unguarded trie build is reported on every run.
  const auto network = model::Network::build(synth::reparse(
      enterprise_configs(0)));
  const auto graph = graph::InstanceGraph::build(network);
  const Context ctx(network, graph);
  std::vector<ip::Ipv4Address> hosts;
  for (const auto& itf : network.interfaces()) {
    if (itf.address) hosts.push_back(*itf.address);
  }
  const auto& routes = ctx.routes();
  const std::size_t instances = graph.set.instances.size();
  const auto probe_all = [&] {
    std::vector<char> answers;
    for (std::uint32_t i = 0; i < instances; ++i) {
      for (const auto host : hosts) {
        answers.push_back(routes.instance_has_route_to(i, host) ? 1 : 0);
      }
    }
    return answers;
  };

  constexpr std::size_t kThreads = 8;
  std::latch start(kThreads);
  std::vector<std::vector<char>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[t] = probe_all();
    });
  }
  for (auto& thread : threads) thread.join();
  const auto serial = probe_all();
  EXPECT_NE(std::count(serial.begin(), serial.end(), 1), 0);
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], serial) << t;
}

TEST_F(AnalysisContext, ResidentFleetSharesEachFactAcrossOps) {
  // rdd holds one context per fleet: the audit, rdlint, the intent
  // verification and fresh pair queries all read its one fixpoint and its
  // one dataflow. Only the what-if sweep runs fixpoints of its own.
  const auto configs = enterprise_configs(4);
  const auto dir = std::filesystem::path(testing::TempDir()) /
                   ("rd_context_fleet_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  synth::emit_network(configs, dir);
  std::vector<std::string> lan_hosts;
  for (const auto& cfg : configs) {
    for (const auto& itf : cfg.interfaces) {
      if (itf.address && itf.address->mask.length() == 24) {
        lan_hosts.push_back(itf.address->address.to_string());
      }
    }
  }
  ASSERT_GE(lan_hosts.size(), 4u);

  std::vector<serve::Request> requests(6);
  requests[0].op = "audit";
  requests[1].op = "rdlint";
  requests[1].format = "json";
  requests[2].op = "headerspace";
  for (std::size_t i = 0; i < 3; ++i) {
    auto& pair = requests[3 + i];
    pair.op = i == 1 ? "headerspace" : "reachability";
    pair.source = lan_hosts[i];
    pair.destination = lan_hosts[i + 1];
  }
  // What the one-shot CLIs print, each over a context of its own.
  const auto network = model::Network::build(synth::load_network(dir));
  const auto graph = graph::InstanceGraph::build(network);
  util::ThreadPool pool(2);
  std::vector<std::string> expected;
  for (const auto& request : requests) {
    if (request.op == "audit") {
      expected.push_back(serve::audit_report(network, graph, pool).output);
    } else if (request.op == "rdlint") {
      expected.push_back(serve::lint_report(network,
                                            RuleEngine::with_default_rules(),
                                            dir.filename().string(),
                                            serve::LintFormat::kJson, pool)
                             .output);
    } else {
      serve::ReachabilityRequest reach;
      reach.symbolic = request.op == "headerspace";
      reach.source = request.source;
      reach.destination = request.destination;
      expected.push_back(
          serve::reachability_report(network, graph.set, reach).output);
    }
  }
  ASSERT_NE(expected[2].find("intent assertions: 4"), std::string::npos);

  serve::Service::Options options;
  options.threads = 2;
  serve::Service service(options);
  service.add_fleet("enterprise", dir.string());
  reset();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto response = service.handle(requests[i]);
    EXPECT_TRUE(response.ok) << requests[i].op << ": " << response.error;
    EXPECT_EQ(response.output, expected[i]) << requests[i].op;
  }
  EXPECT_EQ(service.response_cache_hits(), 0u);
  const auto scenarios = count("sweep.scenarios");
  EXPECT_GT(scenarios, 0u);
  EXPECT_EQ(count("reachability.runs"), 1 + scenarios);
  EXPECT_EQ(count("dataflow.runs"), 1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rd::analysis
