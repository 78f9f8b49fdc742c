#include <gtest/gtest.h>

#include <map>
#include <string>

#include "analysis/reachability.h"
#include "analysis/router_rib.h"
#include "graph/instances.h"
#include "synth/archetypes.h"
#include "synth/emit.h"
#include "testutil.h"

namespace rd::analysis {
namespace {

using rd::test::addr;
using rd::test::network_of;
using rd::test::pfx;

TEST(AdministrativeDistance, StandardRanking) {
  EXPECT_EQ(administrative_distance(RouteSource::kConnected), 0u);
  EXPECT_EQ(administrative_distance(RouteSource::kStatic), 1u);
  EXPECT_EQ(administrative_distance(RouteSource::kEbgp), 20u);
  EXPECT_EQ(administrative_distance(RouteSource::kEigrp), 90u);
  EXPECT_EQ(administrative_distance(RouteSource::kOspf), 110u);
  EXPECT_EQ(administrative_distance(RouteSource::kRip), 120u);
  EXPECT_EQ(administrative_distance(RouteSource::kIbgp), 200u);
}

TEST(AdministrativeDistance, Names) {
  EXPECT_EQ(to_string(RouteSource::kConnected), "connected");
  EXPECT_EQ(to_string(RouteSource::kIbgp), "ibgp");
}

RouterRibAnalysis analyze(const model::Network& network) {
  const auto instances = graph::compute_instances(network);
  const auto reach = ReachabilityAnalysis::run(network, instances);
  return RouterRibAnalysis::run(network, instances, reach);
}

TEST(RouterRib, ConnectedBeatsEverything) {
  // The router's own LAN is both connected and OSPF-originated; the RIB
  // must select the connected source (paper Figure 3 route selection).
  const auto net = network_of(
      {"hostname a\ninterface FastEthernet0/0\n"
       " ip address 10.1.0.1 255.255.255.0\n"
       "router ospf 1\n network 10.1.0.0 0.0.255.255 area 0\n"});
  const auto analysis = analyze(net);
  ASSERT_EQ(analysis.rib(0).size(), 1u);
  EXPECT_EQ(analysis.rib(0)[0].source, RouteSource::kConnected);
  EXPECT_EQ(analysis.rib(0)[0].prefix, pfx("10.1.0.0/24"));
}

TEST(RouterRib, OspfRouteFromNeighborSelected) {
  const auto net = network_of(
      {"hostname a\n"
       "interface Serial0/0 point-to-point\n"
       " ip address 10.0.0.1 255.255.255.252\n"
       "router ospf 1\n network 10.0.0.0 0.255.255.255 area 0\n",
       "hostname b\n"
       "interface Serial0/0 point-to-point\n"
       " ip address 10.0.0.2 255.255.255.252\n"
       "interface FastEthernet0/0\n"
       " ip address 10.5.0.1 255.255.255.0\n"
       "router ospf 1\n network 10.0.0.0 0.255.255.255 area 0\n"});
  const auto analysis = analyze(net);
  // Router a learns b's LAN via OSPF.
  EXPECT_TRUE(analysis.router_can_reach(0, addr("10.5.0.9")));
  bool found = false;
  for (const auto& route : analysis.rib(0)) {
    if (route.prefix == pfx("10.5.0.0/24")) {
      EXPECT_EQ(route.source, RouteSource::kOspf);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(RouterRib, StaticBeatsIgp) {
  const auto net = network_of(
      {"hostname a\n"
       "interface Serial0/0 point-to-point\n"
       " ip address 10.0.0.1 255.255.255.252\n"
       "router ospf 1\n network 10.0.0.0 0.255.255.255 area 0\n"
       "ip route 10.5.0.0 255.255.255.0 10.0.0.2\n",
       "hostname b\n"
       "interface Serial0/0 point-to-point\n"
       " ip address 10.0.0.2 255.255.255.252\n"
       "interface FastEthernet0/0\n"
       " ip address 10.5.0.1 255.255.255.0\n"
       "router ospf 1\n network 10.0.0.0 0.255.255.255 area 0\n"});
  const auto analysis = analyze(net);
  for (const auto& route : analysis.rib(0)) {
    if (route.prefix == pfx("10.5.0.0/24")) {
      EXPECT_EQ(route.source, RouteSource::kStatic);
    }
  }
}

/// The process of the given protocol on a router (the first such).
model::ProcessId process_of(const model::Network& network, model::RouterId r,
                            config::RoutingProtocol protocol) {
  for (const model::ProcessId p : network.router_processes(r)) {
    if (network.processes()[p].protocol == protocol) return p;
  }
  return model::kInvalidId;
}

/// The RIB entries of one router for one prefix.
std::vector<SelectedRoute> entries_for(const RouterRibAnalysis& ribs,
                                       model::RouterId r,
                                       const ip::Prefix& prefix) {
  std::vector<SelectedRoute> out;
  for (const auto& route : ribs.rib(r)) {
    if (route.prefix == prefix) out.push_back(route);
  }
  return out;
}

/// Router a faces neighbour b over 10.0.0.0/30 and neighbour c over
/// 10.0.0.4/30 and runs a copy of each neighbour's routing stanza, b's
/// first when `b_first`. b and c each redistribute the same static
/// 10.9.0.0/24, so both of a's processes learn the prefix and neither holds
/// it locally.
model::Network two_process_router(const std::string& b_stanza,
                                  const std::string& c_stanza, bool b_first) {
  const std::string link =
      "interface Serial0/0 point-to-point\n ip address ";
  const std::string redistributed = " redistribute static subnets\n"
                                    "ip route 10.9.0.0 255.255.255.0 Null0\n";
  return network_of(
      {"hostname a\n" + link + "10.0.0.1 255.255.255.252\n" +
           "interface Serial0/1 point-to-point\n"
           " ip address 10.0.0.5 255.255.255.252\n" +
           (b_first ? b_stanza + c_stanza : c_stanza + b_stanza),
       "hostname b\n" + link + "10.0.0.2 255.255.255.252\n" + b_stanza +
           redistributed,
       "hostname c\n" + link + "10.0.0.6 255.255.255.252\n" + c_stanza +
           redistributed});
}

TEST(RouterRib, EigrpBeatsOspf) {
  // Router a learns 10.9.0.0/24 from OSPF (AD 110) and from EIGRP (AD 90):
  // EIGRP wins, whichever of the two processes a lists first.
  for (const bool ospf_first : {true, false}) {
    const auto net = two_process_router(
        "router ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n",
        "router eigrp 9\n network 10.0.0.4 0.0.0.3\n", ospf_first);
    const auto instances = graph::compute_instances(net);
    const auto reach = ReachabilityAnalysis::run(net, instances);
    const auto ospf = process_of(net, 0, config::RoutingProtocol::kOspf);
    const auto eigrp = process_of(net, 0, config::RoutingProtocol::kEigrp);
    const model::Route offered{pfx("10.9.0.0/24"), std::nullopt};
    ASSERT_TRUE(reach.instance_holds(instances.instance_of[ospf], offered));
    ASSERT_TRUE(reach.instance_holds(instances.instance_of[eigrp], offered));

    const auto ribs = RouterRibAnalysis::run(net, instances, reach);
    const auto entries = entries_for(ribs, 0, pfx("10.9.0.0/24"));
    ASSERT_EQ(entries.size(), 1u) << "ospf first: " << ospf_first;
    EXPECT_EQ(entries[0].source, RouteSource::kEigrp);
    EXPECT_EQ(entries[0].process, eigrp);
  }
}

TEST(RouterRib, EqualDistanceTieGoesToTheFirstProcess) {
  // Two OSPF processes on router a carry 10.9.0.0/24 at one distance: the
  // process a lists first wins.
  for (const bool one_first : {true, false}) {
    const auto net = two_process_router(
        "router ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n",
        "router ospf 2\n network 10.0.0.4 0.0.0.3 area 0\n", one_first);
    const auto instances = graph::compute_instances(net);
    const auto reach = ReachabilityAnalysis::run(net, instances);
    const auto& processes = net.router_processes(0);
    ASSERT_EQ(processes.size(), 2u);
    ASSERT_NE(instances.instance_of[processes[0]],
              instances.instance_of[processes[1]]);
    const model::Route offered{pfx("10.9.0.0/24"), std::nullopt};
    for (const auto p : processes) {
      ASSERT_TRUE(reach.instance_holds(instances.instance_of[p], offered));
    }

    const auto ribs = RouterRibAnalysis::run(net, instances, reach);
    const auto entries = entries_for(ribs, 0, pfx("10.9.0.0/24"));
    ASSERT_EQ(entries.size(), 1u) << "ospf 1 first: " << one_first;
    EXPECT_EQ(entries[0].source, RouteSource::kOspf);
    EXPECT_EQ(entries[0].process, processes[0]);
    const auto& stanza =
        net.routers()[0]
            .router_stanzas[net.processes()[processes[0]].stanza_index];
    EXPECT_EQ(stanza.process_id, one_first ? 1u : 2u);
  }
}

TEST(RouterRib, TaggedCopiesOfOnePrefixAreOneEntry) {
  // Router b originates its LAN into OSPF untagged (network statement) and
  // again tagged 7 (redistribute connected through a tagging route-map), so
  // the instance holds two routes for the prefix; a's RIB keeps one.
  const auto net = network_of(
      {"hostname a\n"
       "interface Serial0/0 point-to-point\n"
       " ip address 10.0.0.1 255.255.255.252\n"
       "router ospf 1\n network 10.0.0.0 0.255.255.255 area 0\n",
       "hostname b\n"
       "interface Serial0/0 point-to-point\n"
       " ip address 10.0.0.2 255.255.255.252\n"
       "interface FastEthernet0/0\n"
       " ip address 10.5.0.1 255.255.255.0\n"
       "router ospf 1\n network 10.0.0.0 0.255.255.255 area 0\n"
       " redistribute connected subnets route-map TAG\n"
       "route-map TAG permit 10\n set tag 7\n"});
  const auto instances = graph::compute_instances(net);
  const auto reach = ReachabilityAnalysis::run(net, instances);
  const auto ospf = process_of(net, 0, config::RoutingProtocol::kOspf);
  std::size_t copies = 0;
  for (const auto& route :
       reach.instance_routes(instances.instance_of[ospf])) {
    if (route.prefix == pfx("10.5.0.0/24")) ++copies;
  }
  ASSERT_GE(copies, 2u);

  const auto ribs = RouterRibAnalysis::run(net, instances, reach);
  const auto entries = entries_for(ribs, 0, pfx("10.5.0.0/24"));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].source, RouteSource::kOspf);
  EXPECT_EQ(entries[0].process, ospf);
}

TEST(RouterRib, ProcessLoadEqualsInstanceRoutes) {
  const auto net = network_of(
      {"hostname a\n"
       "interface FastEthernet0/0\n ip address 10.1.0.1 255.255.255.0\n"
       "interface FastEthernet0/1\n ip address 10.2.0.1 255.255.255.0\n"
       "router ospf 1\n"
       " network 10.1.0.0 0.0.255.255 area 0\n"
       " network 10.2.0.0 0.0.255.255 area 0\n"});
  const auto instances = graph::compute_instances(net);
  const auto reach = ReachabilityAnalysis::run(net, instances);
  const auto analysis = RouterRibAnalysis::run(net, instances, reach);
  EXPECT_EQ(analysis.process_load(0), 2u);
}

TEST(RouterRib, ExternalRoutesFlag) {
  const auto net = network_of(
      {"hostname a\ninterface Serial0/0 point-to-point\n"
       " ip address 10.9.0.1 255.255.255.252\n"
       "router bgp 65000\n neighbor 10.9.0.2 remote-as 701\n"});
  const auto analysis = analyze(net);
  const auto externals = analysis.routers_with_default_route();
  ASSERT_EQ(externals.size(), 1u);  // the default route arrived unfiltered
  EXPECT_EQ(externals[0], 0u);
}

TEST(RouterRib, RibSizesVector) {
  const auto net = network_of({"hostname a\n", "hostname b\n"});
  const auto analysis = analyze(net);
  EXPECT_EQ(analysis.rib_sizes(), (std::vector<std::size_t>{0, 0}));
}

TEST(RouterRib, EbgpProcessClassifiedEbgp) {
  const auto net = network_of(
      {"hostname a\ninterface Serial0/0 point-to-point\n"
       " ip address 10.9.0.1 255.255.255.252\n"
       "router bgp 65000\n"
       " network 10.9.0.0 mask 255.255.255.252\n"
       " neighbor 10.9.0.2 remote-as 701\n"});
  const auto analysis = analyze(net);
  bool saw_ebgp = false;
  for (const auto& route : analysis.rib(0)) {
    if (route.source == RouteSource::kEbgp) saw_ebgp = true;
  }
  EXPECT_TRUE(saw_ebgp);
}

// --- the merged RIBs against the per-router map ----------------------------

/// The selection as first written, kept as the reference: every offer goes
/// into a per-router std::map in offer order (connected, static, then each
/// process's instance routes), and only a strictly lower distance replaces
/// the route held, so a tie keeps the earliest offer. BGP's class comes
/// from a scan over every session.
std::vector<std::vector<SelectedRoute>> reference_ribs(
    const model::Network& network, const graph::InstanceSet& instances,
    const ReachabilityAnalysis& reachability) {
  const auto source_of = [&](model::ProcessId p) {
    switch (network.processes()[p].protocol) {
      case config::RoutingProtocol::kOspf:
        return RouteSource::kOspf;
      case config::RoutingProtocol::kEigrp:
      case config::RoutingProtocol::kIgrp:
        return RouteSource::kEigrp;
      case config::RoutingProtocol::kRip:
      case config::RoutingProtocol::kIsis:
        return RouteSource::kRip;
      case config::RoutingProtocol::kBgp:
        break;
    }
    for (const auto& session : network.bgp_sessions()) {
      if (session.local_process == p &&
          (session.external() || session.ebgp())) {
        return RouteSource::kEbgp;
      }
    }
    return RouteSource::kIbgp;
  };

  std::vector<std::vector<SelectedRoute>> out(network.router_count());
  for (model::RouterId r = 0; r < network.router_count(); ++r) {
    std::map<ip::Prefix, SelectedRoute> best;
    auto offer = [&](const ip::Prefix& prefix, RouteSource source,
                     model::ProcessId p) {
      const auto it = best.find(prefix);
      if (it == best.end() || administrative_distance(source) <
                                  administrative_distance(it->second.source)) {
        best[prefix] = {prefix, source, p};
      }
    };
    for (const model::InterfaceId i : network.router_interfaces(r)) {
      const auto& itf = network.interfaces()[i];
      if (itf.subnet && !itf.shutdown) {
        offer(*itf.subnet, RouteSource::kConnected, model::kInvalidId);
      }
    }
    for (const auto& route : network.routers()[r].static_routes) {
      offer(route.prefix(), RouteSource::kStatic, model::kInvalidId);
    }
    for (const model::ProcessId p : network.router_processes(r)) {
      const RouteSource source = source_of(p);
      for (const auto& route :
           reachability.instance_routes(instances.instance_of[p])) {
        offer(route.prefix, source, p);
      }
    }
    for (const auto& [prefix, route] : best) out[r].push_back(route);
  }
  return out;
}

/// Every router's RIB, route for route, against the reference; also the
/// routers flagged as holding the default route.
void expect_reference_ribs(const synth::SynthNetwork& synth_network) {
  const auto network =
      model::Network::build(synth::reparse(synth_network.configs));
  const auto instances = graph::compute_instances(network);
  const auto reach = ReachabilityAnalysis::run(network, instances);
  const auto ribs = RouterRibAnalysis::run(network, instances, reach);
  const auto want = reference_ribs(network, instances, reach);

  std::size_t routes = 0;
  std::size_t mismatched_routers = 0;
  std::string first_mismatch;
  std::vector<model::RouterId> with_default;
  for (model::RouterId r = 0; r < network.router_count(); ++r) {
    const auto& got = ribs.rib(r);
    routes += got.size();
    bool same = got.size() == want[r].size();
    for (std::size_t i = 0; same && i < got.size(); ++i) {
      same = got[i].prefix == want[r][i].prefix &&
             got[i].source == want[r][i].source &&
             got[i].process == want[r][i].process;
    }
    if (!same && mismatched_routers++ == 0) {
      first_mismatch = network.routers()[r].hostname;
    }
    if (!want[r].empty() && want[r].front().prefix.length() == 0) {
      with_default.push_back(r);
    }
  }
  EXPECT_EQ(mismatched_routers, 0u)
      << synth_network.name << ", first at " << first_mismatch;
  EXPECT_EQ(ribs.routers_with_default_route(), with_default)
      << synth_network.name;
  EXPECT_GT(routes, network.router_count()) << synth_network.name;
}

TEST(RouterRib, MergeEqualsReferenceOnManagedEnterprises) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    synth::ManagedEnterpriseParams params;
    params.seed = seed;
    expect_reference_ribs(synth::make_managed_enterprise(params));
  }
}

TEST(RouterRib, MergeEqualsReferenceOnNet5AndNet15) {
  expect_reference_ribs(synth::make_net5());
  expect_reference_ribs(synth::make_net15());
}

}  // namespace
}  // namespace rd::analysis
