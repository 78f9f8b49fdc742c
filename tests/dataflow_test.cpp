#include "analysis/dataflow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/rules.h"
#include "config/parser.h"
#include "graph/instances.h"
#include "model/network.h"
#include "testutil.h"
#include "util/thread_pool.h"

namespace rd::analysis {
namespace {

using rd::test::network_of;
using rd::test::run_serial;

std::vector<const Finding*> findings_for(const RuleEngine::Result& result,
                                         std::string_view rule_id) {
  std::vector<const Finding*> out;
  for (const auto& f : result.findings) {
    if (f.rule_id == rule_id) out.push_back(&f);
  }
  return out;
}

/// Two routers, RIP and OSPF both spanning both, with a filterless loop:
/// h redistributes RIP into OSPF, s redistributes OSPF back into RIP.
/// RIP's leaf subnet (10.1/24) exits at h, transits OSPF, and re-enters
/// RIP at s with OSPF-external distance 110 < RIP 120.
const char* kLoopHub =
    "hostname h\n"                                  // 1
    "interface Ethernet0\n"                         // 2
    " ip address 10.1.0.1 255.255.255.0\n"          // 3
    "interface Serial0\n"                           // 4
    " ip address 10.0.0.1 255.255.255.252\n"        // 5
    "router rip\n"                                  // 6
    " network 10.1.0.0 0.0.0.255\n"                 // 7
    " network 10.0.0.0 0.0.0.3\n"                   // 8
    "router ospf 1\n"                               // 9
    " network 10.0.0.0 0.0.0.3 area 0\n"            // 10
    " redistribute rip metric 10\n";                // 11
const char* kLoopSpoke =
    "hostname s\n"                                  // 1
    "interface Serial0\n"                           // 2
    " ip address 10.0.0.2 255.255.255.252\n"        // 3
    "router rip\n"                                  // 4
    " network 10.0.0.0 0.0.0.3\n"                   // 5
    " redistribute ospf 1 metric 5\n"               // 6
    "router ospf 1\n"                               // 7
    " network 10.0.0.0 0.0.0.3 area 0\n";           // 8

// --- protocol tables ---------------------------------------------------------

TEST(Dataflow, DistanceAndMetricTables) {
  using config::RoutingProtocol;
  EXPECT_EQ(distance_internal(RoutingProtocol::kEigrp), 90);
  EXPECT_EQ(distance_internal(RoutingProtocol::kOspf), 110);
  EXPECT_EQ(distance_internal(RoutingProtocol::kRip), 120);
  EXPECT_EQ(distance_internal(RoutingProtocol::kBgp), 200);
  EXPECT_EQ(distance_external(RoutingProtocol::kEigrp), 170);
  EXPECT_EQ(distance_external(RoutingProtocol::kOspf), 110);
  EXPECT_EQ(distance_external(RoutingProtocol::kBgp), 200);
  EXPECT_LT(distance_external(RoutingProtocol::kOspf),
            distance_internal(RoutingProtocol::kRip));

  EXPECT_EQ(metric_class(RoutingProtocol::kRip), MetricClass::kHopCount);
  EXPECT_EQ(metric_class(RoutingProtocol::kOspf), MetricClass::kCost);
  EXPECT_EQ(metric_class(RoutingProtocol::kIsis), MetricClass::kCost);
  EXPECT_EQ(metric_class(RoutingProtocol::kEigrp), MetricClass::kComposite);
  EXPECT_EQ(metric_class(RoutingProtocol::kBgp), MetricClass::kPath);
  EXPECT_EQ(metric_class_name(MetricClass::kHopCount), "hop-count");
  EXPECT_EQ(metric_class_name(MetricClass::kPath), "path-attribute");
}

// --- the fixpoint engine -----------------------------------------------------

TEST(Dataflow, EngineDiscoversEdgesAndConverges) {
  const auto net = network_of({kLoopHub, kLoopSpoke});
  const auto graph = graph::InstanceGraph::build(net);
  InstanceDataflow flow(net, graph);

  // One RIP->OSPF edge at h, one OSPF->RIP edge at s.
  ASSERT_EQ(flow.edges().size(), 2u);
  for (const auto& e : flow.edges()) {
    EXPECT_EQ(e.kind, DataflowEdge::Kind::kRedistribution);
    EXPECT_NE(e.from, e.to);
    EXPECT_GT(e.line, 0u);
  }
  EXPECT_TRUE(flow.converged());
  EXPECT_GT(flow.fact_count(), 0u);
  EXPECT_GE(flow.iterations(), 1u);
  // The loop is live: some RIP-born fact came back to RIP.
  ASSERT_EQ(flow.loop_events().size(), 1u);
  const auto& loop = flow.loop_events()[0];
  EXPECT_EQ(flow.edges()[loop.edge].to, loop.origin);
  // Entries were recorded for both instances.
  EXPECT_FALSE(flow.entries().empty());
}

TEST(Dataflow, FactProvenanceSurvivesTransit) {
  const auto net = network_of({kLoopHub, kLoopSpoke});
  const auto graph = graph::InstanceGraph::build(net);
  InstanceDataflow flow(net, graph);
  ASSERT_EQ(flow.loop_events().size(), 1u);
  // The witness left its origin at h (the only exit), and the closing edge
  // sits on s — a genuine multi-router cycle.
  const auto& loop = flow.loop_events()[0];
  EXPECT_NE(loop.exit_router, flow.edges()[loop.edge].router);
}

// --- RD060: redistribution loop ----------------------------------------------

TEST(Dataflow, Rd060FlagsLoopAtClosingEdge) {
  const auto net = network_of({kLoopHub, kLoopSpoke});
  const auto result = run_serial(RuleEngine::with_default_rules(), net);
  const auto loops = findings_for(result, "RD060");
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0]->severity, Severity::kError);
  EXPECT_EQ(loops[0]->router_name, "s");    // where the cycle closes
  EXPECT_EQ(loops[0]->router_b_name, "h");  // where the routes left RIP
  EXPECT_EQ(loops[0]->where.file, "cfg1");
  EXPECT_EQ(loops[0]->where.line, 6u);  // "redistribute ospf 1 metric 5"
  EXPECT_NE(loops[0]->detail.find("re-injects"), std::string::npos);
  EXPECT_GT(result.errors, 0u);
}

TEST(Dataflow, Rd060QuietWhenCycleStaysInsideOneRouter) {
  // Mutual bare redistribution on ONE router: the router's own RIB already
  // prefers the native route, so there is no multi-router cycle to flag.
  // (RD063 still fires — the filterless mutual pair is a real smell.)
  const auto net = network_of(
      {"hostname r1\n"
       "interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n"
       "interface Ethernet1\n ip address 10.1.0.1 255.255.255.0\n"
       "router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n"
       " redistribute ospf 2\n"
       "router ospf 2\n network 10.1.0.0 0.0.0.255 area 0\n"
       " redistribute ospf 1\n"});
  const auto result = run_serial(RuleEngine::with_default_rules(), net);
  EXPECT_TRUE(findings_for(result, "RD060").empty());
  EXPECT_EQ(findings_for(result, "RD063").size(), 1u);
}

TEST(Dataflow, Rd060QuietWhenDistanceDoesNotInvert) {
  // An EIGRP <-> OSPF mutual pair across two routers: the multi-router
  // cycle exists topologically in both directions, but neither carrier's
  // external distance (OSPF 110, EIGRP 170) beats the other protocol's
  // native distance (EIGRP 90, OSPF 110), so the routing system
  // self-corrects and the rule stays quiet.
  const auto net = network_of(
      {"hostname h\n"
       "interface Ethernet0\n ip address 10.1.0.1 255.255.255.0\n"
       "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n"
       "router eigrp 10\n network 10.1.0.0 0.0.0.255\n"
       " network 10.0.0.0 0.0.0.3\n"
       "router ospf 7\n network 10.0.0.0 0.0.0.3 area 0\n"
       " redistribute eigrp 10 metric 100\n",
       "hostname s\n"
       "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n"
       "router eigrp 10\n network 10.0.0.0 0.0.0.3\n"
       " redistribute ospf 7 metric 1000\n"
       "router ospf 7\n network 10.0.0.0 0.0.0.3 area 0\n"});
  const auto result = run_serial(RuleEngine::with_default_rules(), net);
  EXPECT_TRUE(findings_for(result, "RD060").empty());
}

TEST(Dataflow, Rd060QuietWhenTargetStanzaFiltersTheLoopingPrefixes) {
  // s's RIP stanza is the closing edge's target: an outbound
  // distribute-list there filters what s redistributes into RIP. Both
  // RIP-born prefixes (h's leaf and the shared link) travel the loop, so
  // denying one moves the witness to the other, and denying both breaks it.
  const auto spoke_with = [](const char* acl) {
    return std::string("hostname s\n") + acl +
           "interface Serial0\n"
           " ip address 10.0.0.2 255.255.255.252\n"
           "router rip\n"
           " network 10.0.0.0 0.0.0.3\n"
           " redistribute ospf 1 metric 5\n"
           " distribute-list 5 out\n"
           "router ospf 1\n"
           " network 10.0.0.0 0.0.0.3 area 0\n";
  };
  const auto engine = RuleEngine::with_default_rules();
  {
    const auto net = network_of(
        {kLoopHub, spoke_with("access-list 5 deny 10.1.0.0 0.0.0.255\n"
                              "access-list 5 permit any\n")});
    const auto graph = graph::InstanceGraph::build(net);
    const InstanceDataflow flow(net, graph);
    ASSERT_EQ(flow.loop_events().size(), 1u);
    EXPECT_EQ(flow.loop_events()[0].witness.prefix.to_string(),
              "10.0.0.0/30");
    EXPECT_EQ(findings_for(run_serial(engine, net), "RD060").size(), 1u);
  }
  const auto net = network_of(
      {kLoopHub, spoke_with("access-list 5 deny 10.1.0.0 0.0.0.255\n"
                            "access-list 5 deny 10.0.0.0 0.0.0.3\n"
                            "access-list 5 permit any\n")});
  const auto graph = graph::InstanceGraph::build(net);
  EXPECT_TRUE(InstanceDataflow(net, graph).loop_events().empty());
  EXPECT_TRUE(findings_for(run_serial(engine, net), "RD060").empty());
}

// --- internal EBGP sessions --------------------------------------------------

/// AS 100 on a (originating 10.1/24) and AS 200 on b (10.2/24), peered
/// both ways over 10.0.0.0/30: two instances, one session edge each way.
/// `a_extra` lands in a's BGP stanza, `b_extra` in b's; `policies` goes at
/// the top of both configs.
std::vector<std::string> ebgp_pair(const std::string& policies,
                                   const std::string& a_extra,
                                   const std::string& b_extra) {
  return {"hostname a\n" + policies +
              "interface Ethernet0\n ip address 10.1.0.1 255.255.255.0\n"
              "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n"
              "router bgp 100\n"
              " network 10.1.0.0 mask 255.255.255.0\n"
              " neighbor 10.0.0.2 remote-as 200\n" +
              a_extra,
          "hostname b\n" + policies +
              "interface Ethernet0\n ip address 10.2.0.1 255.255.255.0\n"
              "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n"
              "router bgp 200\n"
              " network 10.2.0.0 mask 255.255.255.0\n"
              " neighbor 10.0.0.1 remote-as 100\n" +
              b_extra};
}

std::size_t ebgp_pair_facts(const std::vector<std::string>& configs) {
  const auto net = network_of(configs);
  const auto graph = graph::InstanceGraph::build(net);
  const InstanceDataflow flow(net, graph);
  EXPECT_EQ(flow.edges().size(), 2u);
  for (const auto& edge : flow.edges()) {
    EXPECT_EQ(edge.kind, DataflowEdge::Kind::kSession);
  }
  return flow.fact_count();
}

TEST(Dataflow, SessionPoliciesGuardTheCrossing) {
  // Unfiltered: each AS holds its own prefix and the peer's.
  EXPECT_EQ(ebgp_pair_facts(ebgp_pair("", "", "")), 4u);
  // a's outbound prefix-list toward b denies a's own prefix: only b's
  // prefix still crosses.
  EXPECT_EQ(ebgp_pair_facts(ebgp_pair(
                "ip prefix-list NO1 seq 5 deny 10.1.0.0/24\n"
                "ip prefix-list NO1 seq 10 permit 0.0.0.0/0 le 32\n",
                " neighbor 10.0.0.2 prefix-list NO1 out\n", "")),
            3u);
  // b's inbound distribute-list from a denies the same prefix.
  EXPECT_EQ(ebgp_pair_facts(ebgp_pair(
                "access-list 7 deny 10.1.0.0 0.0.0.255\n"
                "access-list 7 permit any\n",
                "", " neighbor 10.0.0.1 distribute-list 7 in\n")),
            3u);
}

// --- RD061: metric loss ------------------------------------------------------

TEST(Dataflow, Rd061FlagsMetriclessCrossClassBoundary) {
  const auto net = network_of(               // line
      {"hostname r1\n"                       // 1
       "interface Ethernet0\n"               // 2
       " ip address 10.0.0.1 255.255.255.0\n"  // 3
       "interface Ethernet1\n"               // 4
       " ip address 10.1.0.1 255.255.255.0\n"  // 5
       "router ospf 1\n"                     // 6
       " network 10.0.0.0 0.0.0.255 area 0\n"  // 7
       "router rip\n"                        // 8
       " network 10.1.0.0 0.0.0.255\n"       // 9
       " redistribute ospf 1\n"});           // 10
  const auto result = run_serial(RuleEngine::with_default_rules(), net);
  const auto losses = findings_for(result, "RD061");
  ASSERT_EQ(losses.size(), 1u);
  EXPECT_EQ(losses[0]->severity, Severity::kWarning);
  EXPECT_EQ(losses[0]->router_name, "r1");
  EXPECT_EQ(losses[0]->where.line, 10u);
  EXPECT_NE(losses[0]->detail.find("no metric mapping"), std::string::npos);
  EXPECT_NE(losses[0]->detail.find("cost"), std::string::npos);
  EXPECT_NE(losses[0]->detail.find("hop-count"), std::string::npos);
}

TEST(Dataflow, Rd061QuietWithMetricMapping) {
  const char* base_head =
      "hostname r1\n"
      "interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n"
      "interface Ethernet1\n ip address 10.1.0.1 255.255.255.0\n"
      "router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n";
  // Any of the three mapping mechanisms silences the rule.
  for (const char* tail :
       {"router rip\n network 10.1.0.0 0.0.0.255\n"
        " redistribute ospf 1 metric 5\n",
        "router rip\n network 10.1.0.0 0.0.0.255\n"
        " default-metric 5\n redistribute ospf 1\n",
        "route-map SETM permit 10\n set metric 5\n"
        "router rip\n network 10.1.0.0 0.0.0.255\n"
        " redistribute ospf 1 route-map SETM\n"}) {
    const auto net = network_of({std::string(base_head) + tail});
    const auto result = run_serial(RuleEngine::with_default_rules(), net);
    EXPECT_TRUE(findings_for(result, "RD061").empty()) << tail;
  }
}

TEST(Dataflow, Rd061QuietWithinOneMetricClass) {
  // OSPF -> OSPF: same algebra, no mapping needed.
  const auto net = network_of(
      {"hostname r1\n"
       "interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n"
       "interface Ethernet1\n ip address 10.1.0.1 255.255.255.0\n"
       "router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n"
       " redistribute ospf 2\n"
       "router ospf 2\n network 10.1.0.0 0.0.0.255 area 0\n"});
  const auto result = run_serial(RuleEngine::with_default_rules(), net);
  EXPECT_TRUE(findings_for(result, "RD061").empty());
}

// --- RD062: administrative-distance inversion --------------------------------

TEST(Dataflow, Rd062FlagsInversionOnSharedRouter) {
  const auto net = network_of(               // r1 lines
      {"hostname r1\n"                       // 1
       "interface Ethernet0\n"               // 2
       " ip address 10.0.0.1 255.255.255.0\n"  // 3
       "interface Ethernet1\n"               // 4
       " ip address 10.1.0.1 255.255.255.0\n"  // 5
       "router rip\n"                        // 6
       " network 10.0.0.0 0.0.0.255\n"       // 7
       " network 10.1.0.0 0.0.0.255\n"       // 8
       "router ospf 1\n"                     // 9
       " network 10.0.0.0 0.0.0.255 area 0\n"  // 10
       " redistribute rip metric 10\n",      // 11
       "hostname r2\n"
       "interface Ethernet0\n ip address 10.0.0.2 255.255.255.0\n"
       "router rip\n network 10.0.0.0 0.0.0.255\n"
       "router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n"});
  const auto result = run_serial(RuleEngine::with_default_rules(), net);
  const auto inversions = findings_for(result, "RD062");
  ASSERT_EQ(inversions.size(), 1u);
  // OSPF-external 110 beats RIP 120 on r2, which hosts both instances and
  // is not the redistribution point.
  EXPECT_EQ(inversions[0]->router_name, "r1");
  EXPECT_EQ(inversions[0]->router_b_name, "r2");
  EXPECT_EQ(inversions[0]->where.line, 11u);
  EXPECT_NE(inversions[0]->detail.find("administrative distance 110"),
            std::string::npos);
  EXPECT_NE(inversions[0]->detail.find("native distance 120"),
            std::string::npos);
}

TEST(Dataflow, Rd062QuietWithoutASecondSharedRouter) {
  // Same inversion, but r2 does not run RIP: the only router hosting both
  // instances is the redistribution point itself, whose RIB already holds
  // the native route — nothing to invert.
  const auto net = network_of(
      {"hostname r1\n"
       "interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n"
       "interface Ethernet1\n ip address 10.1.0.1 255.255.255.0\n"
       "router rip\n network 10.0.0.0 0.0.0.255\n"
       " network 10.1.0.0 0.0.0.255\n"
       "router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n"
       " redistribute rip metric 10\n",
       "hostname r2\n"
       "interface Ethernet0\n ip address 10.0.0.2 255.255.255.0\n"
       "router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n"});
  const auto result = run_serial(RuleEngine::with_default_rules(), net);
  EXPECT_TRUE(findings_for(result, "RD062").empty());
}

// --- RD063: mutual redistribution without filter -----------------------------

TEST(Dataflow, Rd063FlagsOpenDirectionOnce) {
  const auto net = network_of(
      {"hostname r1\n"
       "interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n"
       "interface Ethernet1\n ip address 10.1.0.1 255.255.255.0\n"
       "access-list 10 permit 10.1.0.0 0.0.0.255\n"
       "route-map GUARD permit 10\n"
       " match ip address 10\n"
       "router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n"
       " redistribute ospf 2 route-map GUARD\n"
       "router ospf 2\n network 10.1.0.0 0.0.0.255 area 0\n"
       " redistribute ospf 1\n"});
  const auto result = run_serial(RuleEngine::with_default_rules(), net);
  const auto mutual = findings_for(result, "RD063");
  ASSERT_EQ(mutual.size(), 1u);  // one finding per pair, not per direction
  EXPECT_NE(mutual[0]->subject.find("<->"), std::string::npos);
  EXPECT_NE(mutual[0]->detail.find("no route-map"), std::string::npos);
}

TEST(Dataflow, Rd063BlanketPermitMapCountsAsOpen) {
  const auto net = network_of(
      {"hostname r1\n"
       "interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n"
       "interface Ethernet1\n ip address 10.1.0.1 255.255.255.0\n"
       "access-list 10 permit 10.1.0.0 0.0.0.255\n"
       "route-map GUARD permit 10\n"
       " match ip address 10\n"
       "route-map WAVE permit 10\n"
       "router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n"
       " redistribute ospf 2 route-map GUARD\n"
       "router ospf 2\n network 10.1.0.0 0.0.0.255 area 0\n"
       " redistribute ospf 1 route-map WAVE\n"});
  const auto result = run_serial(RuleEngine::with_default_rules(), net);
  const auto mutual = findings_for(result, "RD063");
  ASSERT_EQ(mutual.size(), 1u);
  EXPECT_NE(mutual[0]->detail.find("permits every route"), std::string::npos);
}

TEST(Dataflow, Rd063QuietWhenBothDirectionsFiltered) {
  const auto net = network_of(
      {"hostname r1\n"
       "interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n"
       "interface Ethernet1\n ip address 10.1.0.1 255.255.255.0\n"
       "access-list 10 permit 10.1.0.0 0.0.0.255\n"
       "access-list 20 permit 10.0.0.0 0.0.0.255\n"
       "route-map G1 permit 10\n"
       " match ip address 10\n"
       "route-map G2 permit 10\n"
       " match ip address 20\n"
       "router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n"
       " redistribute ospf 2 route-map G1\n"
       "router ospf 2\n network 10.1.0.0 0.0.0.255 area 0\n"
       " redistribute ospf 1 route-map G2\n"});
  const auto result = run_serial(RuleEngine::with_default_rules(), net);
  EXPECT_TRUE(findings_for(result, "RD063").empty());
}

// --- RD064: single-point redistribution --------------------------------------

/// ospf 1 = {r1, r2}, ospf 2 = {r2, r3}; the only exchange is on r2,
/// filtered both ways so RD063 stays quiet and only the structure is wrong.
std::vector<std::string> single_point_fleet(bool add_backup) {
  std::vector<std::string> configs = {
      "hostname r1\n"
      "interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n"
      "interface Ethernet1\n ip address 10.1.0.1 255.255.255.0\n"
      "router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n"
      " network 10.1.0.0 0.0.0.255 area 0\n",
      "hostname r2\n"
      "interface Ethernet0\n ip address 10.0.0.2 255.255.255.0\n"
      "interface Ethernet1\n ip address 10.2.0.2 255.255.255.0\n"
      "access-list 10 permit 10.1.0.0 0.0.0.255\n"
      "access-list 20 permit 10.2.0.0 0.0.0.255\n"
      "route-map R12 permit 10\n match ip address 20\n"
      "route-map R21 permit 10\n match ip address 10\n"
      "router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n"
      " redistribute ospf 2 route-map R12\n"
      "router ospf 2\n network 10.2.0.0 0.0.0.255 area 0\n"
      " redistribute ospf 1 route-map R21\n",
      "hostname r3\n"
      "interface Ethernet0\n ip address 10.2.0.3 255.255.255.0\n"
      "router ospf 2\n network 10.2.0.0 0.0.0.255 area 0\n"};
  if (add_backup) {
    // r4 hosts both instances and a second (filtered) exchange.
    configs.push_back(
        "hostname r4\n"
        "interface Ethernet0\n ip address 10.0.0.4 255.255.255.0\n"
        "interface Ethernet1\n ip address 10.2.0.4 255.255.255.0\n"
        "access-list 10 permit 10.1.0.0 0.0.0.255\n"
        "route-map R21B permit 10\n match ip address 10\n"
        "router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n"
        "router ospf 2\n network 10.2.0.0 0.0.0.255 area 0\n"
        " redistribute ospf 1 route-map R21B\n");
  }
  return configs;
}

TEST(Dataflow, Rd064FlagsSinglePointOfExchange) {
  const auto net = network_of(single_point_fleet(false));
  const auto result = run_serial(RuleEngine::with_default_rules(), net);
  const auto points = findings_for(result, "RD064");
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0]->router_name, "r2");
  EXPECT_NE(points[0]->subject.find("<->"), std::string::npos);
  EXPECT_NE(points[0]->detail.find("only route exchange"), std::string::npos);
  EXPECT_GT(points[0]->where.line, 0u);
}

TEST(Dataflow, Rd064QuietWithRedundantExchange) {
  const auto net = network_of(single_point_fleet(true));
  const auto result = run_serial(RuleEngine::with_default_rules(), net);
  EXPECT_TRUE(findings_for(result, "RD064").empty());
}

// --- provenance / fingerprint stability --------------------------------------

TEST(Dataflow, Rd060FingerprintIsLineStable) {
  // A comment shifts the closing redistribute; the finding must move its
  // line but keep its fingerprint (baselines survive reformatting).
  const std::string shifted =
      std::string("! a comment pushing everything down\n") + kLoopSpoke;
  const auto engine = RuleEngine::with_default_rules();
  const auto run_a = run_serial(engine, network_of({kLoopHub, kLoopSpoke}));
  const auto run_b = run_serial(engine, network_of({kLoopHub, shifted}));
  const auto a = findings_for(run_a, "RD060");
  const auto b = findings_for(run_b, "RD060");
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0]->where.line + 1, b[0]->where.line);
  EXPECT_EQ(finding_fingerprint(*a[0]), finding_fingerprint(*b[0]));
}

TEST(Dataflow, RulesHonorSuppressionComments) {
  const std::string suppressed =
      std::string("! rdlint-disable RD060 RD062 RD063\n") + kLoopSpoke;
  const auto result = run_serial(RuleEngine::with_default_rules(), 
      network_of({kLoopHub, suppressed}));
  EXPECT_TRUE(findings_for(result, "RD060").empty());
  EXPECT_GE(result.suppressed, 1u);
}

TEST(Dataflow, BaselineTracksFixedAndNewFindings) {
  const auto engine = RuleEngine::with_default_rules();
  // Snapshot 1: the loop network. Snapshot 2: the closing redistribute is
  // filtered away (RD060/RD062/RD063 fixed) but the hub's metric mapping
  // was dropped (RD061 appears).
  const char* fixed_spoke =
      "hostname s\n"
      "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n"
      "access-list 10 permit 10.2.0.0 0.0.0.255\n"
      "route-map GUARD permit 10\n match ip address 10\n"
      "router rip\n network 10.0.0.0 0.0.0.3\n"
      " redistribute ospf 1 metric 5 route-map GUARD\n"
      "router ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n";
  const char* metricless_hub =
      "hostname h\n"
      "interface Ethernet0\n ip address 10.1.0.1 255.255.255.0\n"
      "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n"
      "router rip\n network 10.1.0.0 0.0.0.255\n"
      " network 10.0.0.0 0.0.0.3\n"
      "router ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n"
      " redistribute rip\n";
  const auto run1 = run_serial(engine, network_of({kLoopHub, kLoopSpoke}));
  ASSERT_EQ(findings_for(run1, "RD060").size(), 1u);
  const auto baseline =
      baseline_fingerprints(findings_to_json(engine, run1, "snap1"));
  ASSERT_TRUE(baseline.has_value());

  const auto run2 =
      run_serial(engine, network_of({metricless_hub, fixed_spoke}));
  const auto delta = diff_against_baseline(run2.findings, *baseline);
  EXPECT_TRUE(std::any_of(
      delta.new_findings.begin(), delta.new_findings.end(),
      [](const Finding& f) { return f.rule_id == "RD061"; }));
  EXPECT_TRUE(std::any_of(delta.fixed.begin(), delta.fixed.end(),
                          [](const std::string& fp) {
                            return fp.substr(0, 6) == "RD060|";
                          }));
}

// --- determinism -------------------------------------------------------------

TEST(Dataflow, FindingsAreByteIdenticalAcrossThreadCounts) {
  const auto net = network_of({kLoopHub, kLoopSpoke});
  const auto engine = RuleEngine::with_default_rules();
  const auto serial = run_serial(engine, net);
  const auto json = findings_to_json(engine, serial, "loop");
  util::ThreadPool pool2(2);
  util::ThreadPool pool8(8);
  for (util::ThreadPool* pool : {&pool2, &pool8}) {
    EXPECT_EQ(findings_to_json(engine, engine.run(net, *pool), "loop"), json);
  }
}

}  // namespace
}  // namespace rd::analysis
