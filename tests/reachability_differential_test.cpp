// Differential tests for the reachability engines: ReachabilityAnalysis
// (the semi-naïve delta-propagation engine) must produce results identical
// to the naïve full-rescan oracle `reference::run_naive`
// (fixpoint_reference.h), called here directly on the same `prop::Problem`,
// on every synthetic archetype, with any endpoint subset, at any thread
// count, and under randomized edge orderings. The propagation rules are monotone, so the fixpoint is
// confluent — identical outputs are a theorem the suite checks empirically.
// The what-if sweep's count-only fixpoint (`ReachabilityAnalysis::summarize`)
// must report the materialized fixpoint's figures on every scenario's
// failure Problem.
//
// Stress volume is dialable: RD_FUZZ_SEEDS controls how many shuffle seeds
// the confluence test tries (default 8).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "analysis/egress.h"
#include "analysis/propagation.h"
#include "analysis/reachability.h"
#include "analysis/whatif.h"
#include "config/parser.h"
#include "failure_models.h"
#include "fixpoint_reference.h"
#include "graph/instances.h"
#include "model/network.h"
#include "pipeline/pipeline.h"
#include "synth/archetypes.h"
#include "synth/emit.h"
#include "testutil.h"
#include "util/thread_pool.h"

namespace rd::analysis {
namespace {

using rd::test::env_u64;

using Options = ReachabilityAnalysis::Options;

struct Case {
  std::string name;
  model::Network network;
  graph::InstanceSet instances;
  Options options;  // external prefixes etc.
};

Case make_case(std::string name, const synth::SynthNetwork& net,
               std::vector<ip::Prefix> external = {}) {
  auto network = model::Network::build(synth::reparse(net.configs));
  auto instances = graph::compute_instances(network);
  Case c{std::move(name), std::move(network), std::move(instances), {}};
  c.options.external_prefixes = std::move(external);
  return c;
}

// One network per archetype family, sized for test-time budgets (the same
// spread the fleet benchmarks use).
std::vector<Case> differential_cases() {
  std::vector<Case> cases;
  cases.push_back(make_case("net5", synth::make_net5()));
  {
    const auto plan = synth::net15_plan();
    cases.push_back(make_case(
        "net15", synth::make_net15(),
        {plan.ab0, plan.external_left, plan.external_right}));
  }
  {
    synth::BackboneParams p;
    p.core_routers = 4;
    p.access_routers = 16;
    p.external_peers = 30;
    cases.push_back(make_case("backbone", synth::make_backbone(p)));
  }
  {
    synth::TextbookEnterpriseParams p;
    p.routers = 24;
    cases.push_back(
        make_case("textbook", synth::make_textbook_enterprise(p)));
  }
  {
    synth::Tier2Params p;
    p.core_routers = 4;
    p.edge_routers = 10;
    cases.push_back(make_case("tier2", synth::make_tier2_isp(p)));
  }
  {
    synth::ManagedEnterpriseParams p;
    p.regions = 3;
    p.spokes_per_region = 10;
    cases.push_back(make_case("managed", synth::make_managed_enterprise(p)));
  }
  {
    synth::NoBgpParams p;
    cases.push_back(make_case("no_bgp", synth::make_no_bgp_enterprise(p)));
  }
  {
    synth::MergedHybridParams p;
    cases.push_back(make_case("merged", synth::make_merged_hybrid(p)));
  }
  return cases;
}

/// The Problem ReachabilityAnalysis::run builds for these options.
prop::Problem problem_for(const model::Network& network,
                          const graph::InstanceSet& instances,
                          const Options& options) {
  prop::DiscoverOptions discover;
  discover.max_iterations = options.max_iterations;
  discover.active_external_endpoints = options.active_external_endpoints;
  return prop::discover(
      network, instances, discover,
      prop::external_universe(network, options.external_prefixes));
}

/// The oracle's answer for a case under `options`.
prop::FixpointResult oracle_for(const Case& c, const Options& options) {
  return reference::run_naive(problem_for(c.network, c.instances, options));
}

/// A route set is internet-reaching when it holds the default route, which
/// sorts first.
bool holds_default(const std::vector<model::Route>& routes) {
  return !routes.empty() && routes.front().prefix.length() == 0;
}

void expect_identical(const Case& c, const prop::FixpointResult& oracle,
                      const ReachabilityAnalysis& candidate,
                      const std::string& label) {
  EXPECT_EQ(oracle.converged, candidate.converged()) << c.name << " " << label;
  EXPECT_EQ(oracle.announced, candidate.announced_externally())
      << c.name << " " << label << ": announced sets differ";
  ASSERT_EQ(oracle.routes.size(), c.instances.instances.size())
      << c.name << " " << label;
  for (std::uint32_t i = 0; i < c.instances.instances.size(); ++i) {
    EXPECT_EQ(oracle.routes[i], candidate.instance_routes(i))
        << c.name << " " << label << ": instance " << i << " routes differ ("
        << oracle.routes[i].size() << " vs "
        << candidate.instance_routes(i).size() << ")";
    EXPECT_EQ(holds_default(oracle.routes[i]),
              candidate.instance_reaches_internet(i))
        << c.name << " " << label << ": instance " << i;
  }
}

void expect_identical(const Case& c, const prop::FixpointResult& oracle,
                      const prop::FixpointResult& candidate,
                      const std::string& label) {
  EXPECT_EQ(oracle.converged, candidate.converged) << c.name << " " << label;
  EXPECT_EQ(oracle.announced, candidate.announced)
      << c.name << " " << label << ": announced sets differ";
  EXPECT_EQ(oracle.routes, candidate.routes)
      << c.name << " " << label << ": route sets differ";
}

TEST(ReachabilityDifferential, EnginesAgreeAcrossFleet) {
  for (const auto& c : differential_cases()) {
    const auto oracle = oracle_for(c, c.options);
    const auto fast = ReachabilityAnalysis::run(c.network, c.instances,
                                                c.options);
    ASSERT_TRUE(oracle.converged) << c.name;
    expect_identical(c, oracle, fast, "semi-naive");
    // The derived covering queries must agree too (they run on the trie in
    // the analysis's output representation).
    bool any_route = false;
    for (std::uint32_t i = 0; i < c.instances.instances.size(); ++i) {
      for (const auto& route : oracle.routes[i]) {
        if (route.prefix.length() == 0) continue;
        any_route = true;
        EXPECT_TRUE(fast.instance_has_route_to(i, route.prefix.network()))
            << c.name << " instance " << i;
        EXPECT_TRUE(fast.instance_holds(i, route)) << c.name;
      }
    }
    EXPECT_TRUE(any_route) << c.name << ": case propagates nothing";
  }
}

TEST(ReachabilityDifferential, EnginesAgreeWithEndpointSubsets) {
  const auto cases = differential_cases();
  const auto& net15 = cases[1];
  for (const std::vector<std::size_t>& subset :
       {std::vector<std::size_t>{}, std::vector<std::size_t>{0},
        std::vector<std::size_t>{1}, std::vector<std::size_t>{1, 0}}) {
    Options options = net15.options;
    options.active_external_endpoints = subset;  // unsorted accepted
    const auto oracle = oracle_for(net15, options);
    const auto fast =
        ReachabilityAnalysis::run(net15.network, net15.instances, options);
    expect_identical(net15, oracle, fast,
                     "endpoints=" + std::to_string(subset.size()));
  }
}

// Randomized edge orderings: the fixpoint is confluent, so any shuffle of
// the semi-naïve engine's edge lists must reproduce the oracle exactly.
TEST(ReachabilityDifferential, ShuffledEdgeOrderingsAreConfluent) {
  const std::uint64_t seeds = env_u64("RD_FUZZ_SEEDS", 8);
  const auto cases = differential_cases();
  for (const auto* c : {&cases[1], &cases[5]}) {  // net15 + managed
    const auto problem = problem_for(c->network, c->instances, c->options);
    const auto oracle = reference::run_naive(problem);
    for (std::uint64_t s = 0; s < seeds; ++s) {
      const auto shuffled =
          prop::run_semi_naive(problem, s * 0x9e3779b97f4a7c15ULL + 1);
      expect_identical(*c, oracle, shuffled,
                       "shuffle seed " + std::to_string(s));
    }
  }
}

void expect_same_sweep(const std::vector<ScenarioImpact>& a,
                       const std::vector<ScenarioImpact>& b,
                       const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].scenario.name, b[i].scenario.name) << label;
    EXPECT_EQ(a[i].scenario.failed, b[i].scenario.failed) << label;
    EXPECT_EQ(a[i].structural.instances_after, b[i].structural.instances_after)
        << label;
    EXPECT_EQ(a[i].structural.fragmented_instances,
              b[i].structural.fragmented_instances)
        << label;
    EXPECT_EQ(a[i].instances_reaching_internet, b[i].instances_reaching_internet)
        << label;
    EXPECT_EQ(a[i].total_routes, b[i].total_routes) << label;
    EXPECT_EQ(a[i].announced_externally, b[i].announced_externally) << label;
    EXPECT_EQ(a[i].reachability_converged, b[i].reachability_converged)
        << label;
  }
}

TEST(ReachabilityDifferential, WhatIfSweepIdenticalAcrossThreadsAndEngines) {
  synth::ManagedEnterpriseParams p;
  p.regions = 3;
  p.spokes_per_region = 8;
  const auto net = synth::make_managed_enterprise(p);
  const auto network = model::Network::build(synth::reparse(net.configs));
  const auto graph = graph::InstanceGraph::build(network);

  auto scenarios = single_failure_scenarios(network, graph);
  if (scenarios.empty()) {  // belt and braces: always sweep something
    scenarios.push_back({network.routers()[0].hostname, {0}});
  }
  ASSERT_FALSE(scenarios.empty());

  const Options options;
  util::ThreadPool serial_pool(1);
  const auto serial = sweep_failure_scenarios(network, graph.set, scenarios,
                                              options, serial_pool);
  for (const std::size_t threads : {2UL, 8UL}) {
    util::ThreadPool pool(threads);
    const auto parallel = sweep_failure_scenarios(network, graph.set,
                                                  scenarios, options, pool);
    expect_same_sweep(serial, parallel,
                      "threads=" + std::to_string(threads));
  }
  // And the oracle, scenario by scenario: run the naïve fixpoint on the
  // scenario's failure Problem and summarize it the way the sweep does.
  // The structural half comes from rebuilding the network without the
  // failed routers, the sweep's former model.
  std::vector<ScenarioImpact> oracle;
  for (const auto& s : scenarios) {
    ScenarioImpact impact;
    impact.scenario = s;
    impact.structural = test::rebuilt_impact(network, graph.set, s.failed);
    auto failed = s.failed;
    std::sort(failed.begin(), failed.end());
    const auto result = reference::run_naive(
        test::failure_problem(network, failed, options).problem);
    for (const auto& routes : result.routes) {
      if (holds_default(routes)) ++impact.instances_reaching_internet;
      impact.total_routes += routes.size();
    }
    impact.announced_externally = result.announced.size();
    impact.reachability_converged = result.converged;
    oracle.push_back(std::move(impact));
  }
  expect_same_sweep(serial, oracle, "naive oracle sweep");
}

/// The count-only fixpoint (`ReachabilityAnalysis::summarize`) of a
/// Problem against its materialized one (`run_semi_naive`, what `run`
/// keeps); returns the summary.
ReachabilityAnalysis::Summary expect_summary_matches(
    const prop::Problem& problem, const std::string& label) {
  const auto summary = ReachabilityAnalysis::summarize(problem);
  const auto full = prop::run_semi_naive(problem, {});
  std::size_t routes = 0;
  std::size_t reaching = 0;
  for (const auto& instance_routes : full.routes) {
    routes += instance_routes.size();
    if (holds_default(instance_routes)) ++reaching;
  }
  EXPECT_EQ(summary.total_routes, routes) << label;
  EXPECT_EQ(summary.instances_reaching_internet, reaching) << label;
  EXPECT_EQ(summary.announced, full.announced.size()) << label;
  EXPECT_EQ(summary.converged, full.converged) << label;
  return summary;
}

// The what-if sweep counts each scenario's fixpoint off its bitmaps; every
// figure must equal the materialized fixpoint's on the same failure
// Problem, and the sweep must report exactly those figures.
TEST(ReachabilityDifferential, ScenarioSummaryEqualsMaterializedFixpoint) {
  struct Subject {
    std::string name;
    model::Network network;
    Options options;
  };
  std::vector<Subject> subjects;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    synth::ManagedEnterpriseParams p;
    p.seed = seed;
    subjects.push_back(
        {"managed seed " + std::to_string(seed),
         model::Network::build(
             synth::reparse(synth::make_managed_enterprise(p).configs)),
         {}});
  }
  {
    const auto plan = synth::net15_plan();
    Subject net15{"net15",
                  model::Network::build(
                      synth::reparse(synth::make_net15().configs)),
                  {}};
    net15.options.external_prefixes = {plan.ab0, plan.external_left,
                                       plan.external_right};
    subjects.push_back(std::move(net15));
  }

  util::ThreadPool pool(2);
  for (const auto& subject : subjects) {
    const auto graph = graph::InstanceGraph::build(subject.network);
    const auto scenarios = single_failure_scenarios(subject.network, graph);
    ASSERT_FALSE(scenarios.empty()) << subject.name;
    const auto impacts = sweep_failure_scenarios(
        subject.network, graph.set, scenarios, subject.options, pool);
    ASSERT_EQ(impacts.size(), scenarios.size()) << subject.name;
    for (std::size_t k = 0; k < scenarios.size(); ++k) {
      const std::string label = subject.name + " without " + scenarios[k].name;
      auto failed = scenarios[k].failed;
      std::sort(failed.begin(), failed.end());
      const auto summary = expect_summary_matches(
          test::failure_problem(subject.network, failed, subject.options)
              .problem,
          label);
      EXPECT_EQ(impacts[k].total_routes, summary.total_routes) << label;
      EXPECT_EQ(impacts[k].instances_reaching_internet,
                summary.instances_reaching_internet)
          << label;
      EXPECT_EQ(impacts[k].announced_externally, summary.announced) << label;
      EXPECT_EQ(impacts[k].reachability_converged, summary.converged)
          << label;
    }
  }
}

TEST(ReachabilityDifferential, SummaryCountsATaggedDefaultAsReachingInternet) {
  // OSPF learns the default only through a redistribution route-map that
  // tags it, so its one /0 route is 0.0.0.0/0 tag 7.
  const auto network = model::Network::build(
      {config::parse_config("hostname border\n"
                            "interface FastEthernet0/0\n"
                            " ip address 10.1.0.1 255.255.255.0\n"
                            "interface Serial0/0 point-to-point\n"
                            " ip address 10.9.0.1 255.255.255.252\n"
                            "router ospf 1\n"
                            " network 10.1.0.0 0.0.0.255 area 0\n"
                            " redistribute bgp 65000 route-map TAG7\n"
                            "router bgp 65000\n"
                            " neighbor 10.9.0.2 remote-as 701\n"
                            "route-map TAG7 permit 10\n"
                            " set tag 7\n",
                            "border")
           .config});
  const auto instances = graph::compute_instances(network);
  const auto full = ReachabilityAnalysis::run(network, instances);
  const model::Route untagged{ip::Prefix(ip::Ipv4Address(0u), 0),
                              std::nullopt};
  const model::Route tagged{untagged.prefix, 7u};
  std::size_t tagged_only = 0;
  for (std::uint32_t i = 0; i < instances.instances.size(); ++i) {
    if (full.instance_holds(i, tagged) && !full.instance_holds(i, untagged)) {
      ++tagged_only;
      EXPECT_TRUE(full.instance_reaches_internet(i));
    }
  }
  ASSERT_EQ(tagged_only, 1u) << "the OSPF instance holds only the tagged /0";
  const auto summary = expect_summary_matches(
      problem_for(network, instances, Options{}), "tagged default");
  EXPECT_EQ(summary.instances_reaching_internet, instances.instances.size());
}

TEST(ReachabilityDifferential, SummaryOfACutOffFixpointIsTruncated) {
  // Managed seed 1 needs six rounds; cut off after one, it holds fewer
  // routes and announces fewer.
  synth::ManagedEnterpriseParams p;
  p.seed = 1;
  const auto network = model::Network::build(
      synth::reparse(synth::make_managed_enterprise(p).configs));
  const auto instances = graph::compute_instances(network);
  Options truncated;
  truncated.max_iterations = 1;
  const auto cut = expect_summary_matches(
      problem_for(network, instances, truncated), "max_iterations 1");
  EXPECT_FALSE(cut.converged);
  const auto done =
      ReachabilityAnalysis::summarize(problem_for(network, instances, {}));
  EXPECT_TRUE(done.converged);
  EXPECT_LT(cut.total_routes, done.total_routes);
  EXPECT_LT(cut.announced, done.announced);
}

TEST(ReachabilityDifferential, EgressAttributionIdenticalAcrossThreads) {
  const auto net15 = synth::make_net15();
  const auto network = model::Network::build(synth::reparse(net15.configs));
  const auto instances = graph::compute_instances(network);
  Options base;
  const auto plan = synth::net15_plan();
  base.external_prefixes = {plan.ab0, plan.external_left,
                            plan.external_right};

  util::ThreadPool serial_pool(1);
  const auto serial =
      EgressAnalysis::run(network, instances, base, serial_pool);
  ASSERT_FALSE(serial.points().empty());
  for (const std::size_t threads : {2UL, 8UL}) {
    util::ThreadPool pool(threads);
    const auto parallel = EgressAnalysis::run(network, instances, base, pool);
    ASSERT_EQ(serial.points().size(), parallel.points().size());
    for (std::uint32_t i = 0; i < instances.instances.size(); ++i) {
      EXPECT_EQ(serial.instance_egress(i), parallel.instance_egress(i))
          << "instance " << i << " threads " << threads;
    }
  }
}

TEST(ReachabilityDifferential, NonConvergenceIsSurfacedByBothEngines) {
  const auto plan = synth::net15_plan();
  const auto net15 = synth::make_net15();
  const auto network = model::Network::build(synth::reparse(net15.configs));
  const auto instances = graph::compute_instances(network);
  Options truncated;
  truncated.external_prefixes = {plan.ab0, plan.external_left,
                                 plan.external_right};
  truncated.max_iterations = 1;
  Options full = truncated;
  full.max_iterations = 64;

  const auto cut = ReachabilityAnalysis::run(network, instances, truncated);
  EXPECT_FALSE(cut.converged());
  EXPECT_FALSE(cut.convergence_warning().empty());
  const auto done = ReachabilityAnalysis::run(network, instances, full);
  EXPECT_TRUE(done.converged());
  EXPECT_TRUE(done.convergence_warning().empty());

  EXPECT_FALSE(
      reference::run_naive(problem_for(network, instances, truncated))
          .converged);
  EXPECT_TRUE(
      reference::run_naive(problem_for(network, instances, full)).converged);
}

TEST(ReachabilityDifferential, PipelineReportCarriesConvergence) {
  const auto net15 = synth::make_net15();
  const auto network = model::Network::build(synth::reparse(net15.configs));
  const auto report = pipeline::analyze_network("net15", network);
  EXPECT_NE(report.json.find("\"converged\":true"), std::string::npos)
      << report.json;
}

}  // namespace
}  // namespace rd::analysis
