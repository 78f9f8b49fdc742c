#include <gtest/gtest.h>
#include <pthread.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/rules.h"
#include "anonymize/anonymizer.h"
#include "config/parser.h"
#include "config/writer.h"
#include "graph/instances.h"
#include "model/network.h"
#include "synth/archetypes.h"
#include "testutil.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace rd::analysis {
namespace {

using rd::test::network_of;
using rd::test::run_serial;

/// A small synthesized enterprise, reparsed from emitted text so every
/// router carries real line numbers. Shared by the determinism and report
/// structure tests.
const model::Network& managed_network() {
  static const model::Network network = [] {
    synth::ManagedEnterpriseParams params;
    params.seed = 11;
    params.regions = 2;
    params.spokes_per_region = 6;
    params.ebgp_spoke_rate = 0.2;
    std::vector<config::ParseResult> parses;
    for (const auto& cfg : synth::make_managed_enterprise(params).configs) {
      parses.push_back(config::parse_config(config::write_config(cfg)));
    }
    return model::Network::build_parsed(std::move(parses));
  }();
  return network;
}

std::vector<const Finding*> findings_for(const RuleEngine::Result& result,
                                         std::string_view rule_id) {
  std::vector<const Finding*> out;
  for (const auto& f : result.findings) {
    if (f.rule_id == rule_id) out.push_back(&f);
  }
  return out;
}

// --- registry ----------------------------------------------------------------

TEST(RuleEngine, DefaultRegistryHasStableIds) {
  const auto engine = RuleEngine::with_default_rules();
  EXPECT_EQ(engine.rules().size(), 31u);

  // Registration order is id order, and ids never repeat.
  for (std::size_t i = 1; i < engine.rules().size(); ++i) {
    EXPECT_LT(engine.rules()[i - 1].info.id, engine.rules()[i].info.id);
  }

  const auto* rd001 = engine.find("RD001");
  ASSERT_NE(rd001, nullptr);
  EXPECT_EQ(rd001->name, "multi-policy-filter");
  EXPECT_EQ(rd001->category, "lint");

  const auto* rd020 = engine.find("RD020");
  ASSERT_NE(rd020, nullptr);
  EXPECT_EQ(rd020->name, "duplicate-address");
  EXPECT_EQ(rd020->category, "consistency");
  EXPECT_EQ(rd020->severity, Severity::kError);

  const auto* rd030 = engine.find("RD030");
  ASSERT_NE(rd030, nullptr);
  EXPECT_EQ(rd030->category, "vulnerability");

  const auto* rd040 = engine.find("RD040");
  ASSERT_NE(rd040, nullptr);
  EXPECT_EQ(rd040->name, "duplicate-router-id");
  EXPECT_EQ(rd040->category, "cross-router");
  EXPECT_EQ(rd040->severity, Severity::kError);

  const auto* rd044 = engine.find("RD044");
  ASSERT_NE(rd044, nullptr);
  EXPECT_EQ(rd044->name, "unfiltered-igp-edge-interface");

  const auto* rd050 = engine.find("RD050");
  ASSERT_NE(rd050, nullptr);
  EXPECT_EQ(rd050->name, "shadowed-acl-entry");
  EXPECT_EQ(rd050->category, "symbolic");
  EXPECT_EQ(rd050->severity, Severity::kInfo);

  const auto* rd051 = engine.find("RD051");
  ASSERT_NE(rd051, nullptr);
  EXPECT_EQ(rd051->name, "dead-route-map-clause");

  const auto* rd052 = engine.find("RD052");
  ASSERT_NE(rd052, nullptr);
  EXPECT_EQ(rd052->name, "intent-violation");
  EXPECT_EQ(rd052->severity, Severity::kError);

  const auto* rd060 = engine.find("RD060");
  ASSERT_NE(rd060, nullptr);
  EXPECT_EQ(rd060->name, "redistribution-loop");
  EXPECT_EQ(rd060->category, "dataflow");
  EXPECT_EQ(rd060->severity, Severity::kError);

  const auto* rd061 = engine.find("RD061");
  ASSERT_NE(rd061, nullptr);
  EXPECT_EQ(rd061->name, "metric-loss-at-boundary");

  const auto* rd062 = engine.find("RD062");
  ASSERT_NE(rd062, nullptr);
  EXPECT_EQ(rd062->name, "administrative-distance-inversion");

  const auto* rd063 = engine.find("RD063");
  ASSERT_NE(rd063, nullptr);
  EXPECT_EQ(rd063->name, "mutual-redistribution-without-filter");

  const auto* rd064 = engine.find("RD064");
  ASSERT_NE(rd064, nullptr);
  EXPECT_EQ(rd064->name, "single-point-redistribution");
  EXPECT_EQ(rd064->category, "dataflow");

  EXPECT_EQ(engine.find("RD999"), nullptr);
  EXPECT_EQ(engine.find(""), nullptr);

  // Every rule carries a description and a paper citation.
  for (const auto& rule : engine.rules()) {
    EXPECT_FALSE(rule.info.description.empty()) << rule.info.id;
    EXPECT_FALSE(rule.info.paper.empty()) << rule.info.id;
  }
}

TEST(RuleEngine, SeverityNames) {
  EXPECT_EQ(severity_name(Severity::kInfo), "info");
  EXPECT_EQ(severity_name(Severity::kWarning), "warning");
  EXPECT_EQ(severity_name(Severity::kError), "error");
  EXPECT_EQ(severity_sarif_level(Severity::kInfo), "note");
  EXPECT_EQ(severity_sarif_level(Severity::kWarning), "warning");
  EXPECT_EQ(severity_sarif_level(Severity::kError), "error");
}

TEST(RuleEngine, FingerprintIgnoresSourceLocation) {
  Finding a;
  a.rule_id = "RD007";
  a.router_name = "r1";
  a.subject = "101";
  a.detail = "clause 2 duplicates clause 1";
  Finding b = a;
  b.where.file = "other.cfg";
  b.where.line = 99;
  EXPECT_EQ(finding_fingerprint(a), finding_fingerprint(b));

  b.detail = "clause 3 duplicates clause 1";
  EXPECT_NE(finding_fingerprint(a), finding_fingerprint(b));
}

// --- determinism -------------------------------------------------------------

TEST(RuleEngine, SerialAndParallelRunsAreByteIdentical) {
  const auto& network = managed_network();
  const auto engine = RuleEngine::with_default_rules();

  const auto serial = run_serial(engine, network);
  ASSERT_FALSE(serial.findings.empty());

  const auto serial_json = findings_to_json(engine, serial, "managed");
  const auto serial_sarif = findings_to_sarif(engine, serial);

  util::ThreadPool pool1(1);
  util::ThreadPool pool8(8);
  for (util::ThreadPool* pool : {&pool1, &pool8}) {
    const auto parallel = engine.run(network, *pool);
    EXPECT_EQ(findings_to_json(engine, parallel, "managed"), serial_json);
    EXPECT_EQ(findings_to_sarif(engine, parallel), serial_sarif);
    EXPECT_EQ(parallel.errors, serial.errors);
    EXPECT_EQ(parallel.warnings, serial.warnings);
    EXPECT_EQ(parallel.infos, serial.infos);
    EXPECT_EQ(parallel.suppressed, serial.suppressed);
  }
}

// --- provenance --------------------------------------------------------------

TEST(RuleEngine, FindingsCarryFileAndLine) {
  // Line numbers are load-bearing here:        line
  auto parsed = config::parse_config(        //
      "hostname r1\n"                        // 1
      "!\n"                                  // 2
      "interface Ethernet0\n"                // 3
      " ip address 10.0.0.1 255.255.255.0\n" // 4
      "!\n"                                  // 5
      "access-list 10 permit 10.0.0.0 0.0.0.255\n",  // 6
      "r1.cfg");
  auto network = model::Network::build({std::move(parsed.config)});
  const auto engine = RuleEngine::with_default_rules();
  const auto result = run_serial(engine, network);

  const auto unused = findings_for(result, "RD002");
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0]->severity, Severity::kInfo);
  EXPECT_EQ(unused[0]->router_name, "r1");
  EXPECT_EQ(unused[0]->subject, "10");
  EXPECT_EQ(unused[0]->where.file, "r1.cfg");
  EXPECT_EQ(unused[0]->where.line, 6u);
}

TEST(RuleEngine, DuplicateClauseAnchorsAtTheDuplicate) {
  auto parsed = config::parse_config(                 // line
      "hostname r1\n"                                 // 1
      "interface Ethernet0\n"                         // 2
      " ip address 10.0.0.1 255.255.255.0\n"          // 3
      " ip access-group 10 in\n"                      // 4
      "access-list 10 permit 10.0.0.0 0.0.0.255\n"    // 5
      "access-list 10 permit 10.0.0.0 0.0.0.255\n",   // 6
      "r1.cfg");
  auto network = model::Network::build({std::move(parsed.config)});
  const auto result = run_serial(RuleEngine::with_default_rules(), network);

  const auto dups = findings_for(result, "RD007");
  ASSERT_EQ(dups.size(), 1u);
  EXPECT_EQ(dups[0]->subject, "10");
  EXPECT_EQ(dups[0]->detail, "clause 2 duplicates clause 1");
  EXPECT_EQ(dups[0]->where.line, 6u);
}

TEST(RuleEngine, HostnameStandsInForFileWhenParsedFromMemory) {
  // network_of parses via testutil with explicit source names; a config
  // parsed with an empty source name falls back to the hostname.
  auto parsed = config::parse_config(
      "hostname r9\naccess-list 5 permit 10.0.0.0 0.0.0.255\n", "");
  auto network = model::Network::build({std::move(parsed.config)});
  const auto result = run_serial(RuleEngine::with_default_rules(), network);
  const auto unused = findings_for(result, "RD002");
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0]->where.file, "r9");
}

// --- cross-router rules ------------------------------------------------------

TEST(RuleEngine, DuplicateRouterIdAcrossRouters) {
  const auto net = network_of(
      {"hostname a\nrouter ospf 1\n router-id 1.1.1.1\n"
       " network 10.0.0.0 0.0.0.255 area 0\n",
       "hostname b\nrouter ospf 1\n router-id 1.1.1.1\n"
       " network 10.0.1.0 0.0.0.255 area 0\n"});
  const auto result = run_serial(RuleEngine::with_default_rules(), net);
  const auto dups = findings_for(result, "RD040");
  ASSERT_EQ(dups.size(), 1u);
  EXPECT_EQ(dups[0]->severity, Severity::kError);
  EXPECT_EQ(dups[0]->router_name, "b");
  EXPECT_EQ(dups[0]->router_b_name, "a");
  EXPECT_EQ(dups[0]->subject, "1.1.1.1");
  // Anchored at the owning "router ospf" stanza line.
  EXPECT_EQ(dups[0]->where.line, 2u);
  EXPECT_GT(result.errors, 0u);
}

TEST(RuleEngine, SameRouterIdOnOneRouterIsConventional) {
  // Pinning OSPF and BGP to the same loopback id on ONE router is normal.
  const auto net = network_of(
      {"hostname a\nrouter ospf 1\n router-id 1.1.1.1\n"
       " network 10.0.0.0 0.0.0.255 area 0\n"
       "router bgp 65001\n router-id 1.1.1.1\n"});
  const auto result = run_serial(RuleEngine::with_default_rules(), net);
  EXPECT_TRUE(findings_for(result, "RD040").empty());
}

TEST(RuleEngine, OneSidedRedistribution) {
  const auto net = network_of(
      {"hostname a\n"
       "interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n"
       "interface Ethernet1\n ip address 10.1.0.1 255.255.255.0\n"
       "router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n"
       " redistribute ospf 2\n"
       "router ospf 2\n network 10.1.0.0 0.0.0.255 area 0\n"});
  const auto result = run_serial(RuleEngine::with_default_rules(), net);
  const auto one_sided = findings_for(result, "RD041");
  ASSERT_EQ(one_sided.size(), 1u);
  EXPECT_EQ(one_sided[0]->severity, Severity::kWarning);
  EXPECT_EQ(one_sided[0]->router_name, "a");
  // RD042 needs both directions, so it must stay quiet here.
  EXPECT_TRUE(findings_for(result, "RD042").empty());
}

TEST(RuleEngine, AsymmetricRedistributionPolicy) {
  const auto net = network_of(
      {"hostname a\n"
       "interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n"
       "interface Ethernet1\n ip address 10.1.0.1 255.255.255.0\n"
       "route-map GUARD permit 10\n"
       "router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n"
       " redistribute ospf 2 route-map GUARD\n"
       "router ospf 2\n network 10.1.0.0 0.0.0.255 area 0\n"
       " redistribute ospf 1\n"});
  const auto result = run_serial(RuleEngine::with_default_rules(), net);
  const auto asymmetric = findings_for(result, "RD042");
  ASSERT_EQ(asymmetric.size(), 1u);
  EXPECT_NE(asymmetric[0]->detail.find("GUARD"), std::string::npos);
  // Both directions exist, so RD041 must stay quiet.
  EXPECT_TRUE(findings_for(result, "RD041").empty());
}

// --- symbolic rules ----------------------------------------------------------

TEST(RuleEngine, ShadowedAclEntryUnderPacketSemantics) {
  // Clause 2 is tcp-only and fully covered by the tcp-wide clause 1; the
  // RD008 lint heuristic cannot see it (extended rules), the exact-set
  // check can. Anchored at the shadowed clause's own line.
  auto parsed = config::parse_config(               // line
      "hostname r1\n"                               // 1
      "interface Ethernet0\n"                       // 2
      " ip address 10.0.0.1 255.255.255.0\n"        // 3
      " ip access-group 101 in\n"                   // 4
      "access-list 101 permit tcp any any\n"        // 5
      "access-list 101 deny tcp any host 10.0.0.5\n"  // 6
      "access-list 101 permit ip any any\n",        // 7
      "r1.cfg");
  auto network = model::Network::build({std::move(parsed.config)});
  const auto result = run_serial(RuleEngine::with_default_rules(), network);
  const auto shadowed = findings_for(result, "RD050");
  ASSERT_EQ(shadowed.size(), 1u);
  EXPECT_EQ(shadowed[0]->severity, Severity::kInfo);
  EXPECT_EQ(shadowed[0]->subject, "101");
  EXPECT_EQ(shadowed[0]->detail,
            "clause 2 can never match a packet (the preceding clauses cover "
            "its entire header space)");
  EXPECT_EQ(shadowed[0]->where.file, "r1.cfg");
  EXPECT_EQ(shadowed[0]->where.line, 6u);
}

TEST(RuleEngine, ShadowedAclEntryFingerprintIsLineStable) {
  // Inserting a comment shifts every line; the fingerprint must not move.
  const std::string base =
      "hostname r1\n"
      "interface Ethernet0\n"
      " ip address 10.0.0.1 255.255.255.0\n"
      " ip access-group 101 in\n"
      "access-list 101 permit tcp any any\n"
      "access-list 101 deny tcp any host 10.0.0.5\n"
      "access-list 101 permit ip any any\n";
  const std::string shifted = "! a comment pushing everything down\n" + base;
  const auto engine = RuleEngine::with_default_rules();
  auto net_a =
      model::Network::build({config::parse_config(base, "r1.cfg").config});
  auto net_b =
      model::Network::build({config::parse_config(shifted, "r1.cfg").config});
  const auto run_a = run_serial(engine, net_a);
  const auto run_b = run_serial(engine, net_b);
  const auto a = findings_for(run_a, "RD050");
  const auto b = findings_for(run_b, "RD050");
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_NE(a[0]->where.line, b[0]->where.line);
  EXPECT_EQ(finding_fingerprint(*a[0]), finding_fingerprint(*b[0]));
}

TEST(RuleEngine, ShadowedAclEntryUnderRouteSemantics) {
  // Unattached ACLs are judged as route filters: only the source spec
  // matters, so the port-bearing clause 2 (a distinct *packet* set) is a
  // dead clause in route space.
  const auto net = network_of(
      {"hostname r1\n"
       "interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n"
       "router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n"
       " distribute-list 101 in\n"
       "access-list 101 permit ip 10.0.0.0 0.0.255.255 any\n"
       "access-list 101 deny tcp 10.0.1.0 0.0.0.255 any eq 80\n"});
  const auto result = run_serial(RuleEngine::with_default_rules(), net);
  const auto shadowed = findings_for(result, "RD050");
  ASSERT_EQ(shadowed.size(), 1u);
  EXPECT_EQ(shadowed[0]->detail,
            "clause 2 can never match a route (the preceding clauses cover "
            "its source space)");
}

TEST(RuleEngine, Rd050DoesNotDoubleReportLintShadows) {
  // A standard-over-standard shadow is RD008's finding; RD050 must stay
  // quiet on that clause even though its exact region is empty too.
  const auto net = network_of(
      {"hostname r1\n"
       "access-list 10 permit 10.0.0.0 0.0.255.255\n"
       "access-list 10 deny 10.0.1.0 0.0.0.255\n"
       "access-list 10 permit any\n"});
  const auto result = run_serial(RuleEngine::with_default_rules(), net);
  EXPECT_EQ(findings_for(result, "RD008").size(), 1u);
  EXPECT_TRUE(findings_for(result, "RD050").empty());
}

/// Runs `body` on a fresh thread whose stack is `bytes` long, and joins it.
template <typename Body>
void run_on_stack_of(std::size_t bytes, Body& body) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, bytes), 0);
  pthread_t thread;
  const int created = pthread_create(
      &thread, &attr,
      [](void* arg) -> void* {
        (*static_cast<Body*>(arg))();
        return nullptr;
      },
      &body);
  pthread_attr_destroy(&attr);
  ASSERT_EQ(created, 0);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
}

TEST(RuleEngine, ShadowedAclEntryDeepChainOnSmallStack) {
  // 5,000 single-port permits with descending ports, then a tcp-wide deny,
  // then a port-80 deny the permits already cover. Deciding the tcp-wide
  // deny peels it against every permit in turn, a piece chain as deep as
  // the clause count: a recursive cover search would overflow the 128 KiB
  // thread stack RD050 runs on here.
  constexpr int kPermits = 5000;
  std::string text =
      "hostname r1\n"
      "interface Ethernet0\n"
      " ip address 10.0.0.1 255.255.255.0\n"
      " ip access-group 150 in\n";
  for (int port = kPermits; port >= 1; --port) {
    text += "access-list 150 permit tcp any any eq " + std::to_string(port) +
            "\n";
  }
  text += "access-list 150 deny tcp any any\n";
  text += "access-list 150 deny tcp any any eq 80\n";
  const auto network =
      model::Network::build({config::parse_config(text, "r1.cfg").config});
  const auto graph = graph::InstanceGraph::build(network);
  const auto engine = RuleEngine::with_default_rules();
  const auto rule = std::find_if(
      engine.rules().begin(), engine.rules().end(),
      [](const RuleEngine::Rule& r) { return r.info.id == "RD050"; });
  ASSERT_NE(rule, engine.rules().end());
  const Context ctx(network, graph);

  std::vector<Finding> findings;
  auto body = [&] { findings = rule->fn(ctx); };
  run_on_stack_of(128 * 1024, body);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].subject, "150");
  EXPECT_EQ(findings[0].detail,
            "clause " + std::to_string(kPermits + 2) +
                " can never match a packet (the preceding clauses cover its "
                "entire header space)");
}

TEST(RuleEngine, DeadRouteMapClauses) {
  const auto net = network_of(               // line
      {"hostname r1\n"                       // 1
       "access-list 10 permit 10.0.0.0 0.0.255.255\n"   // 2
       "access-list 20 permit 10.0.1.0 0.0.0.255\n"     // 3
       "route-map FOO permit 10\n"           // 4
       " match ip address 10\n"              // 5
       "route-map FOO permit 20\n"           // 6
       " match ip address 20\n"              // 7
       "route-map FOO permit 30\n"           // 8
       " match ip address 99\n"});           // 9
  const auto result = run_serial(RuleEngine::with_default_rules(), net);
  const auto dead = findings_for(result, "RD051");
  ASSERT_EQ(dead.size(), 2u);
  EXPECT_EQ(dead[0]->subject, "FOO");
  EXPECT_EQ(dead[0]->detail,
            "clause 20 can never be reached: earlier clauses match every "
            "route it matches");
  EXPECT_EQ(dead[0]->where.line, 6u);
  EXPECT_EQ(dead[1]->detail,
            "clause 30 can never match: its match conditions are "
            "unsatisfiable (no referenced list matches any route)");
  EXPECT_EQ(dead[1]->where.line, 8u);
}

TEST(RuleEngine, PrefixListBoundsKeepClauseAlive) {
  // The ge/le window of clause 20 reaches lengths clause 10 does not
  // (24..32 vs exactly 24), so it is NOT dead — the length dimension of
  // the route geometry must be modelled, not just the address.
  const auto net = network_of(
      {"hostname r1\n"
       "ip prefix-list P1 seq 5 permit 10.0.0.0/8 le 24\n"
       "ip prefix-list P2 seq 5 permit 10.0.0.0/8 le 32\n"
       "route-map FOO permit 10\n"
       " match ip address prefix-list P1\n"
       "route-map FOO permit 20\n"
       " match ip address prefix-list P2\n"});
  const auto result = run_serial(RuleEngine::with_default_rules(), net);
  EXPECT_TRUE(findings_for(result, "RD051").empty());
}

TEST(RuleEngine, IntentViolationFinding) {
  auto parsed = config::parse_config(             // line
      "hostname r1\n"                             // 1
      "! rd-intent deny 10.1.0.0/24 10.2.0.0/24\n"  // 2
      "! rd-intent deny 10.1.0.0/24 10.3.0.0/24\n"  // 3
      "interface Ethernet0\n"                     // 4
      " ip address 10.1.0.1 255.255.255.0\n"      // 5
      " ip access-group 101 in\n"                 // 6
      "interface Ethernet1\n"                     // 7
      " ip address 10.2.0.1 255.255.255.0\n"      // 8
      "interface Ethernet2\n"                     // 9
      " ip address 10.3.0.1 255.255.255.0\n"      // 10
      "router ospf 1\n"                           // 11
      " network 10.0.0.0 0.255.255.255 area 0\n"  // 12
      "access-list 101 deny ip any 10.3.0.0 0.0.0.255\n"  // 13
      "access-list 101 permit ip any any\n",      // 14
      "r1.cfg");
  auto network = model::Network::build({std::move(parsed.config)});
  const auto result = run_serial(RuleEngine::with_default_rules(), network);
  const auto violations = findings_for(result, "RD052");
  // The 10.3/24 intent holds (the ACL blocks it); the 10.2/24 one fails.
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0]->severity, Severity::kError);
  EXPECT_EQ(violations[0]->subject, "deny 10.1.0.0/24 -> 10.2.0.0/24");
  EXPECT_NE(violations[0]->detail.find("deny intent violated"),
            std::string::npos);
  EXPECT_NE(violations[0]->detail.find("gets through"), std::string::npos);
  EXPECT_EQ(violations[0]->where.line, 2u);
  EXPECT_GT(result.errors, 0u);
}

TEST(RuleEngine, SymbolicRulesHonorSuppression) {
  const std::string text =
      "hostname r1\n"
      "! rdlint-disable RD050 RD052\n"
      "! rd-intent deny 10.1.0.0/24 10.2.0.0/24\n"
      "interface Ethernet0\n"
      " ip address 10.1.0.1 255.255.255.0\n"
      " ip access-group 101 in\n"
      "interface Ethernet1\n"
      " ip address 10.2.0.1 255.255.255.0\n"
      "router ospf 1\n"
      " network 10.0.0.0 0.255.255.255 area 0\n"
      "access-list 101 permit tcp any any\n"
      "access-list 101 deny tcp any host 10.2.0.5\n"
      "access-list 101 permit ip any any\n";
  auto network =
      model::Network::build({config::parse_config(text, "r1.cfg").config});
  const auto result = run_serial(RuleEngine::with_default_rules(), network);
  EXPECT_TRUE(findings_for(result, "RD050").empty());
  EXPECT_TRUE(findings_for(result, "RD052").empty());
  EXPECT_GE(result.suppressed, 2u);
}

TEST(RuleEngine, SymbolicFindingsClassifyAgainstBaseline) {
  const auto engine = RuleEngine::with_default_rules();
  // Snapshot 1: the shadowed clause exists, no intents declared.
  const std::string snap1 =
      "hostname r1\n"
      "interface Ethernet0\n"
      " ip address 10.1.0.1 255.255.255.0\n"
      " ip access-group 101 in\n"
      "interface Ethernet1\n"
      " ip address 10.2.0.1 255.255.255.0\n"
      "router ospf 1\n"
      " network 10.0.0.0 0.255.255.255 area 0\n"
      "access-list 101 permit tcp any any\n"
      "access-list 101 deny tcp any host 10.2.0.5\n"
      "access-list 101 permit ip any any\n";
  // Snapshot 2: the dead clause is gone (RD050 fixed) and a failing
  // intent was declared (RD052 appears).
  const std::string snap2 =
      "hostname r1\n"
      "! rd-intent deny 10.1.0.0/24 10.2.0.0/24\n"
      "interface Ethernet0\n"
      " ip address 10.1.0.1 255.255.255.0\n"
      " ip access-group 101 in\n"
      "interface Ethernet1\n"
      " ip address 10.2.0.1 255.255.255.0\n"
      "router ospf 1\n"
      " network 10.0.0.0 0.255.255.255 area 0\n"
      "access-list 101 permit tcp any any\n"
      "access-list 101 permit ip any any\n";
  auto net1 =
      model::Network::build({config::parse_config(snap1, "r1.cfg").config});
  auto net2 =
      model::Network::build({config::parse_config(snap2, "r1.cfg").config});
  const auto run1 = run_serial(engine, net1);
  ASSERT_EQ(findings_for(run1, "RD050").size(), 1u);

  const auto baseline =
      baseline_fingerprints(findings_to_json(engine, run1, "snap1"));
  ASSERT_TRUE(baseline.has_value());
  const auto delta =
      diff_against_baseline(run_serial(engine, net2).findings, *baseline);

  const auto is_rule = [](std::string_view id) {
    return [id](const Finding& f) { return f.rule_id == id; };
  };
  EXPECT_TRUE(std::any_of(delta.new_findings.begin(), delta.new_findings.end(),
                          is_rule("RD052")));
  EXPECT_TRUE(std::any_of(delta.fixed.begin(), delta.fixed.end(),
                          [](const std::string& fp) {
                            return fp.substr(0, 6) == "RD050|";
                          }));
}

// --- suppressions ------------------------------------------------------------

TEST(RuleEngine, SuppressionCommentDropsFindings) {
  const std::string text =
      "hostname r1\n"
      "! rdlint-disable RD002\n"
      "access-list 10 permit 10.0.0.0 0.0.0.255\n";
  auto network = model::Network::build({config::parse_config(text, "r1.cfg").config});
  const auto result = run_serial(RuleEngine::with_default_rules(), network);
  EXPECT_TRUE(findings_for(result, "RD002").empty());
  EXPECT_EQ(result.suppressed, 1u);
}

TEST(RuleEngine, SuppressionAppliesPerRouter) {
  const auto net = network_of(
      {"hostname a\n! rdlint-disable RD002\n"
       "access-list 10 permit 10.0.0.0 0.0.0.255\n",
       "hostname b\n"
       "access-list 10 permit 10.0.0.0 0.0.0.255\n"});
  const auto result = run_serial(RuleEngine::with_default_rules(), net);
  const auto unused = findings_for(result, "RD002");
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0]->router_name, "b");
  EXPECT_EQ(result.suppressed, 1u);
}

TEST(RuleEngine, SuppressionSurvivesAnonymization) {
  // The anonymizer strips comment text but preserves rdlint-disable
  // structurally, so a suppressed finding stays suppressed on the
  // anonymized fleet.
  const std::string text =
      "hostname r1\n"
      "! rdlint-disable RD002\n"
      "access-list 10 permit 10.0.0.0 0.0.0.255\n";
  anonymize::Anonymizer anon(1234);
  const auto scrubbed = anon.anonymize(text);
  EXPECT_NE(scrubbed.find("rdlint-disable RD002"), std::string::npos);

  auto network =
      model::Network::build({config::parse_config(scrubbed, "anon.cfg").config});
  const auto result = run_serial(RuleEngine::with_default_rules(), network);
  EXPECT_TRUE(findings_for(result, "RD002").empty());
  EXPECT_EQ(result.suppressed, 1u);
}

// --- report serialization ----------------------------------------------------

TEST(RuleEngine, SarifGoldenFile) {
  RuleEngine engine;
  engine.add({"RD900", "test-rule", "test", Severity::kWarning, "A test rule.",
              "section 0"},
             [](const Context&) {
               Finding f;
               f.router = 0;
               f.subject = "subj";
               f.detail = "det";
               f.where.line = 3;
               return std::vector<Finding>{f};
             });
  auto network =
      model::Network::build({config::parse_config("hostname r1\n", "r1.cfg").config});
  const auto result = run_serial(engine, network);
  ASSERT_EQ(result.findings.size(), 1u);

  const std::string expected = R"({
  "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
  "version": "2.1.0",
  "runs": [
    {
      "tool": {
        "driver": {
          "name": "rdlint",
          "informationUri": "https://dl.acm.org/doi/10.1145/1015467.1015472",
          "rules": [
            {
              "id": "RD900",
              "name": "test-rule",
              "shortDescription": {
                "text": "A test rule."
              },
              "defaultConfiguration": {
                "level": "warning"
              },
              "properties": {
                "category": "test",
                "paper": "section 0"
              }
            }
          ]
        }
      },
      "results": [
        {
          "ruleId": "RD900",
          "ruleIndex": 0,
          "level": "warning",
          "message": {
            "text": "r1: subj: det"
          },
          "locations": [
            {
              "physicalLocation": {
                "artifactLocation": {
                  "uri": "r1.cfg"
                },
                "region": {
                  "startLine": 3
                }
              }
            }
          ],
          "partialFingerprints": {
            "rdlint/v1": "RD900|r1|subj|det"
          }
        }
      ]
    }
  ]
})";
  EXPECT_EQ(findings_to_sarif(engine, result), expected);
}

TEST(RuleEngine, SarifStructureIsWellFormed) {
  const auto& network = managed_network();
  const auto engine = RuleEngine::with_default_rules();
  const auto result = run_serial(engine, network);
  const auto doc = util::Json::parse(findings_to_sarif(engine, result));
  ASSERT_TRUE(doc.has_value());

  const auto* schema = doc->get("$schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(*schema->if_string(), "https://json.schemastore.org/sarif-2.1.0.json");
  EXPECT_EQ(*doc->get("version")->if_string(), "2.1.0");

  const auto* runs = doc->get("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->size(), 1u);
  const auto* run = runs->at(0);
  const auto* driver = run->get("tool")->get("driver");
  ASSERT_NE(driver, nullptr);
  EXPECT_EQ(*driver->get("name")->if_string(), "rdlint");

  const auto* rules = driver->get("rules");
  ASSERT_NE(rules, nullptr);
  ASSERT_EQ(rules->size(), engine.rules().size());
  for (std::size_t i = 0; i < rules->size(); ++i) {
    EXPECT_EQ(*rules->at(i)->get("id")->if_string(), engine.rules()[i].info.id);
  }

  const auto* results = run->get("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->size(), result.findings.size());
  for (std::size_t i = 0; i < results->size(); ++i) {
    const auto* r = results->at(i);
    const auto* rule_id = r->get("ruleId")->if_string();
    ASSERT_NE(rule_id, nullptr);
    // ruleIndex must point at the descriptor for ruleId.
    const auto index = static_cast<std::size_t>(r->get("ruleIndex")->int_or(-1));
    ASSERT_LT(index, rules->size());
    EXPECT_EQ(*rules->at(index)->get("id")->if_string(), *rule_id);
    EXPECT_EQ(*r->get("level")->if_string(),
              *rules->at(index)->get("defaultConfiguration")->get("level")->if_string());
    ASSERT_NE(r->get("partialFingerprints")->get("rdlint/v1"), nullptr);
  }
}

TEST(RuleEngine, JsonReportRoundTripsFingerprints) {
  const auto& network = managed_network();
  const auto engine = RuleEngine::with_default_rules();
  const auto result = run_serial(engine, network);
  const auto json = findings_to_json(engine, result, "managed");

  const auto fingerprints = baseline_fingerprints(json);
  ASSERT_TRUE(fingerprints.has_value());
  EXPECT_TRUE(std::is_sorted(fingerprints->begin(), fingerprints->end()));
  // Sorted + deduped set of every finding's fingerprint.
  std::vector<std::string> expected;
  for (const auto& f : result.findings) {
    expected.push_back(finding_fingerprint(f));
  }
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()), expected.end());
  EXPECT_EQ(*fingerprints, expected);

  EXPECT_FALSE(baseline_fingerprints("not json").has_value());
  EXPECT_FALSE(baseline_fingerprints("{}").has_value());
  EXPECT_FALSE(baseline_fingerprints("{\"findings\": 3}").has_value());
  EXPECT_FALSE(
      baseline_fingerprints("{\"findings\": [{\"rule\": \"RD001\"}]}").has_value());
}

// --- baseline classification -------------------------------------------------

TEST(RuleEngine, BaselineClassifiesNewFixedUnchanged) {
  Finding persisting;
  persisting.rule_id = "RD002";
  persisting.router_name = "r1";
  persisting.subject = "10";
  persisting.detail = "1 clauses";
  Finding fresh;
  fresh.rule_id = "RD007";
  fresh.router_name = "r1";
  fresh.subject = "10";
  fresh.detail = "clause 2 duplicates clause 1";

  const std::vector<std::string> baseline = {
      finding_fingerprint(persisting), "RD003|r2|OLD|gone"};
  const auto delta = diff_against_baseline({persisting, fresh}, baseline);
  ASSERT_EQ(delta.unchanged.size(), 1u);
  EXPECT_EQ(delta.unchanged[0].rule_id, "RD002");
  ASSERT_EQ(delta.new_findings.size(), 1u);
  EXPECT_EQ(delta.new_findings[0].rule_id, "RD007");
  ASSERT_EQ(delta.fixed.size(), 1u);
  EXPECT_EQ(delta.fixed[0], "RD003|r2|OLD|gone");
}

TEST(RuleEngine, BaselineAcrossTwoSnapshots) {
  const auto engine = RuleEngine::with_default_rules();

  // Snapshot 1: ACL 10 defined but never referenced (RD002).
  auto net1 = network_of(
      {"hostname r1\n"
       "interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n"
       "access-list 10 permit 10.0.0.0 0.0.0.255\n"});
  const auto run1 = run_serial(engine, net1);
  ASSERT_EQ(findings_for(run1, "RD002").size(), 1u);

  // Snapshot 2: the ACL is now applied (RD002 fixed), but its definition
  // was fat-fingered into a duplicate clause (RD007 appears).
  auto net2 = network_of(
      {"hostname r1\n"
       "interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n"
       " ip access-group 10 in\n"
       "access-list 10 permit 10.0.0.0 0.0.0.255\n"
       "access-list 10 permit 10.0.0.0 0.0.0.255\n"});
  const auto run2 = run_serial(engine, net2);

  // The saved JSON report of snapshot 1 is the baseline for snapshot 2.
  const auto baseline =
      baseline_fingerprints(findings_to_json(engine, run1, "snap1"));
  ASSERT_TRUE(baseline.has_value());
  const auto delta = diff_against_baseline(run2.findings, *baseline);

  const auto is_rule = [](std::string_view id) {
    return [id](const Finding& f) { return f.rule_id == id; };
  };
  EXPECT_TRUE(std::any_of(delta.new_findings.begin(), delta.new_findings.end(),
                          is_rule("RD007")));
  EXPECT_TRUE(std::none_of(delta.unchanged.begin(), delta.unchanged.end(),
                           is_rule("RD002")));
  ASSERT_EQ(delta.fixed.size(), 1u);
  EXPECT_EQ(delta.fixed[0].substr(0, 6), "RD002|");
}

}  // namespace
}  // namespace rd::analysis
