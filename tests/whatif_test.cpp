#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <ostream>
#include <set>
#include <string>
#include <utility>

#include "analysis/propagation.h"
#include "analysis/reachability.h"
#include "analysis/vulnerability.h"
#include "analysis/whatif.h"
#include "failure_models.h"
#include "synth/archetypes.h"
#include "synth/emit.h"
#include "synth/fleet.h"
#include "testutil.h"
#include "util/thread_pool.h"

namespace rd::analysis {
namespace {

using rd::test::network_of;

/// The sweep's impact of one scenario failing `failed`, on a two-thread
/// pool.
ScenarioImpact sweep_one(const model::Network& network,
                         std::vector<model::RouterId> failed) {
  util::ThreadPool pool(2);
  return sweep_failure_scenarios(network, graph::compute_instances(network),
                                 {{"scenario", std::move(failed)}}, {}, pool)
      .front();
}

/// Whether some route in `routes` covers `addr` (the default route aside).
bool covers(const std::vector<model::Route>& routes, ip::Ipv4Address addr) {
  return std::any_of(routes.begin(), routes.end(), [&](const auto& route) {
    return route.prefix.length() > 0 && route.prefix.contains(addr);
  });
}

bool holds_default(const std::vector<model::Route>& routes) {
  return !routes.empty() && routes.front().prefix.length() == 0;
}

/// Routes an instance of `problem`'s fixpoint holds that no seed of that
/// instance originates: what it learned across its borders.
std::size_t learned_across_borders(const prop::Problem& problem,
                                   const prop::FixpointResult& fixpoint,
                                   std::uint32_t instance) {
  std::set<model::Route> seeded;
  for (const auto& seed : problem.seeds) {
    if (seed.instance == instance) seeded.insert(seed.route);
  }
  const auto& held = fixpoint.routes[instance];
  return static_cast<std::size_t>(
      std::count_if(held.begin(), held.end(), [&](const auto& route) {
        return !seeded.contains(route);
      }));
}

std::string chain_router(int index, bool left_link, bool right_link) {
  // Router i with /30s to i-1 (10.0.0.(4i)/30) and i+1 (10.0.0.(4i+4)/30),
  // all covered by OSPF.
  std::string text = "hostname r" + std::to_string(index) + "\n";
  if (left_link) {
    text += "interface Serial0/0 point-to-point\n ip address 10.0.0." +
            std::to_string(4 * index + 2) + " 255.255.255.252\n";
  }
  if (right_link) {
    text += "interface Serial0/1 point-to-point\n ip address 10.0.0." +
            std::to_string(4 * index + 5) + " 255.255.255.252\n";
  }
  text += "router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n";
  return text;
}

/// A 5-router OSPF chain r0 - r1 - r2 - r3 - r4.
model::Network chain_network() {
  std::vector<std::string> texts;
  for (int i = 0; i < 5; ++i) {
    texts.push_back(chain_router(i, i > 0, i < 4));
  }
  return network_of(texts);
}

TEST(WithoutRouters, RemovesConfigs) {
  const auto net = chain_network();
  const auto after = test::without_routers(net, {1, 3});
  EXPECT_EQ(after.router_count(), 3u);
  EXPECT_EQ(after.routers()[0].hostname, "r0");
  EXPECT_EQ(after.routers()[1].hostname, "r2");
  EXPECT_EQ(after.routers()[2].hostname, "r4");
}

TEST(SimulateFailure, MiddleOfChainFragmentsInstance) {
  const auto net = chain_network();
  ASSERT_EQ(graph::compute_instances(net).instances.size(), 1u);
  const auto impact = sweep_one(net, {2}).structural;
  EXPECT_EQ(impact.instances_before, 1u);
  EXPECT_EQ(impact.instances_after, 2u);
  EXPECT_EQ(impact.fragmented_instances, std::vector<std::uint32_t>{0});
}

TEST(SimulateFailure, EndOfChainIsHarmless) {
  const auto net = chain_network();
  const auto impact = sweep_one(net, {0}).structural;
  EXPECT_EQ(impact.instances_after, 1u);
  EXPECT_TRUE(impact.fragmented_instances.empty());
}

TEST(SimulateFailure, SoleRedistributorSeversPair) {
  // Router a alone redistributes OSPF into EIGRP. Failing it leaves the
  // EIGRP side (router e) with its own routes and none from the OSPF side
  // (router o), whose LAN it learned before.
  const auto net = network_of(
      {"hostname a\n"
       "interface FastEthernet0/0\n ip address 10.1.0.1 255.255.255.0\n"
       "interface FastEthernet0/1\n ip address 10.2.0.1 255.255.255.0\n"
       "router ospf 1\n network 10.1.0.0 0.0.255.255 area 0\n"
       "router eigrp 9\n network 10.2.0.0 0.0.255.255\n"
       " redistribute ospf 1\n",
       "hostname o\n"
       "interface FastEthernet0/0\n ip address 10.1.0.2 255.255.255.0\n"
       "interface FastEthernet0/1\n ip address 10.1.9.1 255.255.255.0\n"
       "router ospf 1\n network 10.1.0.0 0.0.255.255 area 0\n",
       "hostname e\n"
       "interface FastEthernet0/0\n ip address 10.2.0.2 255.255.255.0\n"
       "interface FastEthernet0/1\n ip address 10.2.9.1 255.255.255.0\n"
       "router eigrp 9\n network 10.2.0.0 0.0.255.255\n"});
  const auto graph = graph::InstanceGraph::build(net);
  ASSERT_EQ(sole_redistribution_routers(net, graph),
            std::vector<model::RouterId>{0});
  const model::ProcessId e_eigrp = net.processes().size() - 1;
  ASSERT_EQ(net.processes()[e_eigrp].router, 2u);
  const auto o_lan = rd::test::addr("10.1.9.7");

  const auto intact = test::failure_problem(net, {});
  const auto before = prop::run_semi_naive(intact.problem, {});
  const auto eigrp_before = intact.partition.instance_of[e_eigrp];
  EXPECT_TRUE(covers(before.routes[eigrp_before], o_lan));
  EXPECT_GT(learned_across_borders(intact.problem, before, eigrp_before), 0u);

  const auto failure = test::failure_problem(net, {0});
  const auto after = prop::run_semi_naive(failure.problem, {});
  const auto eigrp_after = failure.partition.instance_of[e_eigrp];
  EXPECT_FALSE(covers(after.routes[eigrp_after], o_lan));
  EXPECT_EQ(learned_across_borders(failure.problem, after, eigrp_after), 0u);
  EXPECT_TRUE(covers(after.routes[eigrp_after], rd::test::addr("10.2.9.7")));
}

TEST(Articulation, ChainMiddleRoutersAreCutVertices) {
  const auto net = chain_network();
  const auto instances = graph::compute_instances(net);
  const auto cuts = instance_articulation_routers(net, instances);
  // r1, r2, r3 are articulation points of the 5-chain.
  ASSERT_EQ(cuts.size(), 3u);
  std::vector<model::RouterId> routers;
  for (const auto& cut : cuts) routers.push_back(cut.router);
  std::sort(routers.begin(), routers.end());
  EXPECT_EQ(routers, (std::vector<model::RouterId>{1, 2, 3}));
}

TEST(Articulation, RingHasNoCutVertices) {
  // A 4-ring: every router has two disjoint paths to every other.
  std::vector<std::string> texts;
  for (int i = 0; i < 4; ++i) {
    const int left = ((i + 3) % 4) * 4;   // link id shared with predecessor
    const int right = i * 4;
    std::string text = "hostname ring" + std::to_string(i) + "\n";
    text += "interface Serial0/0 point-to-point\n ip address 10.0.0." +
            std::to_string(left + 2) + " 255.255.255.252\n";
    text += "interface Serial0/1 point-to-point\n ip address 10.0.0." +
            std::to_string(right + 1) + " 255.255.255.252\n";
    text += "router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n";
    texts.push_back(text);
  }
  const auto net = network_of(texts);
  const auto instances = graph::compute_instances(net);
  ASSERT_EQ(instances.instances.size(), 1u);
  ASSERT_EQ(instances.instances[0].router_count(), 4u);
  EXPECT_TRUE(instance_articulation_routers(net, instances).empty());
}

TEST(Articulation, HubAndSpokeHubIsTheCut) {
  std::vector<std::string> texts;
  std::string hub = "hostname hub\n";
  for (int s = 0; s < 4; ++s) {
    hub += "interface Serial0/" + std::to_string(s) +
           " point-to-point\n ip address 10.0.0." + std::to_string(4 * s + 1) +
           " 255.255.255.252\n";
    texts.push_back("hostname spoke" + std::to_string(s) +
                    "\ninterface Serial0/0 point-to-point\n ip address "
                    "10.0.0." +
                    std::to_string(4 * s + 2) +
                    " 255.255.255.252\nrouter ospf 1\n network 10.0.0.0 "
                    "0.0.255.255 area 0\n");
  }
  hub += "router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n";
  texts.insert(texts.begin(), hub);
  const auto net = network_of(texts);
  const auto instances = graph::compute_instances(net);
  const auto cuts = instance_articulation_routers(net, instances);
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(net.routers()[cuts[0].router].hostname, "hub");
}

TEST(Articulation, IbgpMeshHasNoCuts) {
  // Three routers in an IBGP full mesh over a shared LAN.
  std::vector<std::string> texts;
  for (int i = 0; i < 3; ++i) {
    std::string text = "hostname b" + std::to_string(i) +
                       "\ninterface FastEthernet0/0\n ip address 10.0.0." +
                       std::to_string(i + 1) + " 255.255.255.0\n";
    text += "router bgp 65000\n";
    for (int j = 0; j < 3; ++j) {
      if (j != i) {
        text += " neighbor 10.0.0." + std::to_string(j + 1) +
                " remote-as 65000\n";
      }
    }
    texts.push_back(text);
  }
  const auto net = network_of(texts);
  const auto instances = graph::compute_instances(net);
  ASSERT_EQ(instances.instances.size(), 1u);
  EXPECT_TRUE(instance_articulation_routers(net, instances).empty());
}

TEST(SoleRedistribution, FindsSingletons) {
  const auto net = network_of(
      {"hostname a\n"
       "interface FastEthernet0/0\n ip address 10.1.0.1 255.255.255.0\n"
       "interface FastEthernet0/1\n ip address 10.2.0.1 255.255.255.0\n"
       "router ospf 1\n network 10.1.0.0 0.0.255.255 area 0\n"
       "router eigrp 9\n network 10.2.0.0 0.0.255.255\n"
       " redistribute ospf 1\n"});
  const auto graph = graph::InstanceGraph::build(net);
  const auto sole = sole_redistribution_routers(net, graph);
  ASSERT_EQ(sole.size(), 1u);
  EXPECT_EQ(sole[0], 0u);
}

TEST(SimulateFailure, ReachabilityUnderFailureScenario) {
  // The §3.1 question: "what destinations will be reachable from a
  // particular router under any given failure scenario". An OSPF island
  // learns an EIGRP island's routes through one redistribution router;
  // failing it removes those destinations from the survivors' RIBs.
  const auto net = network_of(
      {"hostname ospf-a\n"
       "interface Serial0/0 point-to-point\n"
       " ip address 10.0.0.1 255.255.255.252\n"
       "router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n",
       "hostname bridge\n"
       "interface Serial0/0 point-to-point\n"
       " ip address 10.0.0.2 255.255.255.252\n"
       "interface Serial0/1 point-to-point\n"
       " ip address 10.1.0.1 255.255.255.252\n"
       "router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n"
       " redistribute eigrp 9\n"
       "router eigrp 9\n network 10.1.0.0 0.0.255.255\n",
       "hostname eigrp-c\n"
       "interface Serial0/0 point-to-point\n"
       " ip address 10.1.0.2 255.255.255.252\n"
       "interface FastEthernet0/0\n"
       " ip address 10.1.5.1 255.255.255.0\n"
       "router eigrp 9\n"
       " network 10.1.0.0 0.0.255.255\n"});
  const auto instances = graph::compute_instances(net);
  const auto reach_before = ReachabilityAnalysis::run(net, instances);
  const auto dest = rd::test::addr("10.1.5.9");
  // Before: the OSPF instance holds the EIGRP LAN.
  const auto ospf_instance = instances.instance_of[0];  // ospf-a's process
  EXPECT_TRUE(reach_before.instance_has_route_to(ospf_instance, dest));

  // Fail the bridge: the OSPF side's fixpoint on the failure Problem no
  // longer holds the EIGRP LAN, and still holds its own link.
  const auto failure = test::failure_problem(net, {1});
  const auto after = prop::run_semi_naive(failure.problem, {});
  const auto& ospf_after = after.routes[failure.partition.instance_of[0]];
  EXPECT_FALSE(covers(ospf_after, dest));
  EXPECT_TRUE(covers(ospf_after, rd::test::addr("10.0.0.1")));
}

TEST(SimulateFailure, Net5SixBorderFailureSeversCompartment) {
  // The paper's §5.1 question: the 445-router compartment is severed from
  // its BGP instance only if all 6 redundant borders fail.
  const auto net5 = synth::make_net5();
  const auto network = model::Network::build(synth::reparse(net5.configs));
  const auto graph = graph::InstanceGraph::build(network);

  // Find the 6-router redundancy group and the compartment it borders.
  InstancePairRedundancy group;
  for (const auto& entry : redistribution_redundancy(network, graph)) {
    if (entry.connecting_routers.size() == 6) group = entry;
  }
  const auto& six = group.connecting_routers;
  ASSERT_EQ(six.size(), 6u);
  const std::uint32_t compartment =
      graph.set.instances[group.instance_a].router_count() == 445
          ? group.instance_a
          : group.instance_b;
  ASSERT_EQ(graph.set.instances[compartment].router_count(), 445u);

  // What the compartment's surviving processes learn across its borders:
  // the most any one of the instances they land in learns. The borders are
  // hubs, so failing them also splits the compartment.
  const auto learned = [&](std::vector<model::RouterId> failed) {
    std::sort(failed.begin(), failed.end());
    const auto failure = test::failure_problem(network, failed);
    const auto fixpoint = prop::run_semi_naive(failure.problem, {});
    std::size_t most = 0;
    for (const model::ProcessId p :
         graph.set.instances[compartment].processes) {
      if (std::binary_search(failed.begin(), failed.end(),
                             network.processes()[p].router)) {
        continue;
      }
      most = std::max(most,
                      learned_across_borders(failure.problem, fixpoint,
                                             failure.partition.instance_of[p]));
    }
    return most;
  };
  EXPECT_GT(learned({}), 0u);
  // Failing five of the six leaves the compartment's piece behind the
  // sixth border learning across it...
  EXPECT_GT(learned({six.begin(), six.end() - 1}), 0u);
  // ...failing all six severs every piece.
  EXPECT_EQ(learned(six), 0u);
}

/// Calls `f(pos)` for every domain position a membership bitmap holds.
template <typename F>
void for_each_held(const std::vector<std::uint64_t>& bits, F f) {
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
      f(static_cast<std::uint32_t>(w * 64 + std::countr_zero(word)));
    }
  }
}

TEST(WhatIfSweep, ChainMiddleFailureCutsTheNearEndOff) {
  // A three-router OSPF chain near - middle - far whose far end alone peers
  // externally and redistributes BGP into OSPF. Failing the middle router
  // leaves the near end with neither the far LAN nor a default route: its
  // link to the middle router is down, not a way out of the network.
  const auto net = network_of(
      {"hostname near\n"
       "interface Serial0/0 point-to-point\n"
       " ip address 10.0.0.1 255.255.255.252\n"
       "interface FastEthernet0/0\n ip address 10.0.1.1 255.255.255.0\n"
       "router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n",
       "hostname middle\n"
       "interface Serial0/0 point-to-point\n"
       " ip address 10.0.0.2 255.255.255.252\n"
       "interface Serial0/1 point-to-point\n"
       " ip address 10.0.0.5 255.255.255.252\n"
       "router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n",
       "hostname far\n"
       "interface Serial0/0 point-to-point\n"
       " ip address 10.0.0.6 255.255.255.252\n"
       "interface FastEthernet0/0\n ip address 10.0.2.1 255.255.255.0\n"
       "interface Serial0/1 point-to-point\n"
       " ip address 192.0.2.1 255.255.255.252\n"
       "router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n"
       " redistribute bgp 65000\n"
       "router bgp 65000\n neighbor 192.0.2.2 remote-as 701\n"});
  const auto baseline = graph::compute_instances(net);
  ASSERT_EQ(baseline.instances.size(), 2u);  // OSPF and BGP
  const model::ProcessId near_ospf = 0;
  ASSERT_EQ(net.processes()[near_ospf].router, 0u);
  const auto far_lan = rd::test::addr("10.0.2.9");
  const auto before = ReachabilityAnalysis::run(net, baseline);
  EXPECT_TRUE(
      before.instance_has_route_to(baseline.instance_of[near_ospf], far_lan));
  EXPECT_TRUE(
      before.instance_reaches_internet(baseline.instance_of[near_ospf]));

  const auto impact = sweep_one(net, {1});
  EXPECT_EQ(impact.structural.instances_after, 3u);
  // The far end's OSPF piece and the BGP instance; not the near end.
  EXPECT_EQ(impact.instances_reaching_internet, 2u);
  EXPECT_LE(impact.announced_externally, before.announced_externally().size());

  const auto failure = test::failure_problem(net, {1});
  const auto after = prop::run_semi_naive(failure.problem, {});
  const auto& near_routes =
      after.routes[failure.partition.instance_of[near_ospf]];
  EXPECT_FALSE(covers(near_routes, far_lan));
  EXPECT_FALSE(holds_default(near_routes));
  EXPECT_TRUE(covers(near_routes, rd::test::addr("10.0.1.9")));
}

TEST(WhatIfSweep, FailedRoutersInEitherOrderGiveEqualImpacts) {
  // The re-closure and the mask look failed routers up by binary search;
  // the sweep sorts a copy of each scenario's list, so the order a caller
  // lists them in cannot matter.
  const auto net = chain_network();
  util::ThreadPool pool(2);
  const auto impacts = sweep_failure_scenarios(
      net, graph::compute_instances(net),
      {{"r1 r3", {1, 3}}, {"r3 r1", {3, 1}}}, {}, pool);
  ASSERT_EQ(impacts.size(), 2u);
  const auto& sorted = impacts[0];
  const auto& reversed = impacts[1];
  EXPECT_EQ(sorted.structural.instances_after, 3u);  // r0, r2 and r4 apart
  EXPECT_EQ(reversed.structural.instances_after,
            sorted.structural.instances_after);
  EXPECT_EQ(reversed.structural.fragmented_instances,
            sorted.structural.fragmented_instances);
  EXPECT_EQ(reversed.total_routes, sorted.total_routes);
  EXPECT_EQ(reversed.instances_reaching_internet,
            sorted.instances_reaching_internet);
  EXPECT_EQ(reversed.announced_externally, sorted.announced_externally);
  EXPECT_EQ(reversed.reachability_converged, sorted.reachability_converged);
}

/// One fleet scenario's checks. The sweep's structural half equals the
/// rebuild's. The failure Problem's fixpoint gains nothing over the
/// baseline's: no surviving router is in an instance holding a default
/// route unless its baseline instance held one, and every route announced
/// was announced before. The sweep reports that fixpoint's figures.
void expect_scenario_sound(const model::Network& network,
                           const graph::InstanceSet& baseline,
                           const ReachabilityAnalysis& before,
                           const ScenarioImpact& impact,
                           const std::string& label) {
  const auto reference =
      test::rebuilt_impact(network, baseline, impact.scenario.failed);
  EXPECT_EQ(impact.structural.instances_after, reference.instances_after)
      << label;
  EXPECT_EQ(impact.structural.fragmented_instances,
            reference.fragmented_instances)
      << label;

  auto failed = impact.scenario.failed;
  std::sort(failed.begin(), failed.end());
  const auto failure = test::failure_problem(network, failed);
  const auto after = prop::propagate(failure.problem, {});
  std::vector<std::uint32_t> defaults;
  for (std::uint32_t pos = 0; pos < after.domain.size(); ++pos) {
    if (after.domain[pos].prefix.length() == 0) defaults.push_back(pos);
  }
  std::vector<char> reaches(failure.problem.instance_count, 0);
  std::size_t total = 0;
  for (std::uint32_t j = 0; j < after.member.size(); ++j) {
    total += prop::held_count(after.member[j]);
    for (const std::uint32_t pos : defaults) {
      if (prop::holds(after.member[j], pos)) reaches[j] = 1;
    }
  }
  for (model::ProcessId p = 0; p < network.processes().size(); ++p) {
    const auto router = network.processes()[p].router;
    if (std::binary_search(failed.begin(), failed.end(), router)) continue;
    if (reaches[failure.partition.instance_of[p]]) {
      EXPECT_TRUE(before.instance_reaches_internet(baseline.instance_of[p]))
          << label << ": " << network.routers()[router].hostname
          << " gains Internet reach";
    }
  }
  std::size_t announced = 0;
  for_each_held(after.announced, [&](std::uint32_t pos) {
    ++announced;
    EXPECT_TRUE(std::binary_search(before.announced_externally().begin(),
                                   before.announced_externally().end(),
                                   after.domain[pos]))
        << label << ": announces " << after.domain[pos].prefix.to_string();
  });

  EXPECT_EQ(impact.total_routes, total) << label;
  EXPECT_EQ(impact.instances_reaching_internet,
            static_cast<std::size_t>(
                std::count(reaches.begin(), reaches.end(), 1)))
      << label;
  EXPECT_EQ(impact.announced_externally, announced) << label;
  EXPECT_EQ(impact.reachability_converged, after.converged) << label;
}

/// One shard of the fleet sweep: the scenarios of one network whose index
/// modulo `parts` is `part`, or, with no network named, every scenario of
/// the networks not split below.
struct FleetShard {
  const char* network = nullptr;
  std::size_t part = 0;
  std::size_t parts = 1;
};

// generate_fleet(1) has 210 single-failure scenarios, most of them cheap.
// These networks take long enough to split, each into this many shards. A
// tier-2 ISP's scenario costs a second or more, since each pays the
// baseline's filtered external injection.
const std::pair<const char*, std::size_t> kSplitNetworks[] = {
    {"net5", 2},     {"net-tier2a", 10}, {"net-tier2b", 4},
    {"net-mgd0", 3}, {"net-mgd1", 2},    {"net-mgd2", 1},
};

std::vector<FleetShard> fleet_shards() {
  std::vector<FleetShard> shards{{}};
  for (const auto& [network, parts] : kSplitNetworks) {
    for (std::size_t part = 0; part < parts; ++part) {
      shards.push_back({network, part, parts});
    }
  }
  return shards;
}

std::string shard_name(const FleetShard& shard) {
  if (shard.network == nullptr) return "rest";
  std::string name = shard.network;
  std::replace(name.begin(), name.end(), '-', '_');
  return name + "_" + std::to_string(shard.part);
}

void PrintTo(const FleetShard& shard, std::ostream* os) {
  *os << shard_name(shard);
}

class WhatIfSweep : public ::testing::TestWithParam<FleetShard> {};

TEST_P(WhatIfSweep, FleetScenariosMatchTheRebuildAndGainNothing) {
  const FleetShard shard = GetParam();
  const auto split = [](const std::string& name) {
    return std::any_of(std::begin(kSplitNetworks), std::end(kSplitNetworks),
                       [&](const auto& entry) { return name == entry.first; });
  };
  util::ThreadPool pool(2);
  std::size_t swept = 0;
  for (const auto& net : synth::generate_fleet(1).networks) {
    if (shard.network != nullptr ? net.name != shard.network
                                 : split(net.name)) {
      continue;
    }
    const auto network = model::Network::build(synth::reparse(net.configs));
    const auto graph = graph::InstanceGraph::build(network);
    const auto all = single_failure_scenarios(network, graph);
    std::vector<FailureScenario> scenarios;
    for (std::size_t k = shard.part; k < all.size(); k += shard.parts) {
      scenarios.push_back(all[k]);
    }
    if (scenarios.empty()) continue;
    const auto before = ReachabilityAnalysis::run(network, graph.set);
    const auto impacts =
        sweep_failure_scenarios(network, graph.set, scenarios, {}, pool);
    ASSERT_EQ(impacts.size(), scenarios.size());
    for (const auto& impact : impacts) {
      expect_scenario_sound(network, graph.set, before, impact,
                            net.name + " without " + impact.scenario.name);
    }
    swept += scenarios.size();
  }
  EXPECT_GT(swept, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Fleet, WhatIfSweep, ::testing::ValuesIn(fleet_shards()),
    [](const ::testing::TestParamInfo<FleetShard>& info) {
      return shard_name(info.param);
    });

}  // namespace
}  // namespace rd::analysis
