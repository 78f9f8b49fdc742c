// Differential fuzz suite for the symbolic header-space engine: on random
// (ingress, egress, header) samples across the synthetic fleet, the concrete
// one-probe verdict (`PacketReachability::evaluate == kPossiblyReachable`)
// must equal symbolic membership (`HeaderSpace::passes`). The concrete
// engine is the oracle; any disagreement is a bug in one of them.
//
// Also here: ACL self-equivalence over every packet filter in the fleet
// (the lowering must be stable and the equivalence decision reflexive), the
// cover search's shadowed clauses against the lowering's on every fleet ACL
// and two mutants of each, and byte-identical rule reports at 1/2/8 threads
// on an intent-bearing network.
//
// Stress volume is dialable: RD_FUZZ_SEEDS (default 2) networks-orderings,
// RD_FUZZ_ITERS (default 1400) header samples per network.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/header_space.h"
#include "analysis/packet_reachability.h"
#include "analysis/rules.h"
#include "graph/instances.h"
#include "model/policy.h"
#include "synth/emit.h"
#include "synth/fleet.h"
#include "testutil.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace rd::analysis {
namespace {

using rd::test::run_serial;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  std::uint64_t parsed = 0;
  if (!util::parse_u64(util::trim(raw), parsed) || parsed == 0) {
    return fallback;
  }
  return parsed;
}

struct Case {
  std::string name;
  model::Network network;
  graph::InstanceSet instances;
  ReachabilityAnalysis routes;
};

/// Fleet networks small enough to fuzz densely (the big backbones and
/// managed networks exercise the same code through fewer, targeted suites).
std::vector<Case> fuzz_cases(std::size_t max_routers = 120) {
  const auto fleet = synth::generate_fleet(1);
  std::vector<Case> cases;
  for (const auto& net : fleet.networks) {
    if (net.configs.size() > max_routers) continue;
    auto network = model::Network::build(synth::reparse(net.configs));
    auto instances = graph::compute_instances(network);
    auto routes = ReachabilityAnalysis::run(network, instances);
    cases.push_back({net.name, std::move(network), std::move(instances),
                     std::move(routes)});
    if (cases.size() == 8) break;
  }
  return cases;
}

/// A random header biased toward the network's own address space: most
/// samples land inside interface subnets (where filters and routes act),
/// the rest probe arbitrary addresses (unattached / no-route paths).
FlowQuery random_query(util::Rng& rng, const model::Network& network) {
  static const char* kProtocols[] = {"ip",  "tcp", "udp", "icmp",
                                     "pim", "gre", ""};
  static const std::uint16_t kPorts[] = {0,   23,  53,   80,  161,
                                         443, 1433, 8080, 65535};
  const auto& itfs = network.interfaces();
  const auto pick_addr = [&]() -> ip::Ipv4Address {
    if (!itfs.empty() && rng.chance(0.8)) {
      const auto& itf = itfs[rng.below(itfs.size())];
      if (itf.subnet) {
        const auto span = itf.subnet->size();
        return ip::Ipv4Address(
            itf.subnet->network().value() +
            static_cast<std::uint32_t>(rng.below(span)));
      }
    }
    return ip::Ipv4Address(static_cast<std::uint32_t>(rng.next()));
  };
  FlowQuery query;
  query.source = pick_addr();
  query.destination = pick_addr();
  query.protocol = kProtocols[rng.below(std::size(kProtocols))];
  if (rng.chance(0.7)) {
    query.destination_port = kPorts[rng.below(std::size(kPorts))];
  }
  return query;
}

TEST(SymbolicDifferential, ConcreteVerdictEqualsSymbolicMembership) {
  const auto seeds = env_u64("RD_FUZZ_SEEDS", 2);
  const auto iters = env_u64("RD_FUZZ_ITERS", 1400);
  const auto cases = fuzz_cases();
  ASSERT_GE(cases.size(), 4u);
  std::size_t samples = 0;
  for (const auto& c : cases) {
    const PacketReachability concrete(c.network, c.instances, c.routes);
    HeaderSpace symbolic(c.network, c.instances, c.routes);
    for (std::uint64_t seed = 0; seed < seeds; ++seed) {
      util::Rng rng(0x5eedULL * (seed + 1) + samples);
      for (std::uint64_t i = 0; i < iters; ++i) {
        const auto query = random_query(rng, c.network);
        const bool concrete_pass =
            concrete.evaluate(query) == FlowVerdict::kPossiblyReachable;
        const bool symbolic_pass = symbolic.passes(query);
        ASSERT_EQ(concrete_pass, symbolic_pass)
            << c.name << ": " << query.source.to_string() << " -> "
            << query.destination.to_string() << " proto '" << query.protocol
            << "' port "
            << (query.destination_port
                    ? std::to_string(*query.destination_port)
                    : "none")
            << " (concrete verdict: "
            << to_string(concrete.evaluate(query)) << ")";
        ++samples;
      }
    }
  }
  // The acceptance floor: at least 10k (pair, header) samples.
  EXPECT_GE(samples, 10000u);
}

/// Calls `fn(network_name, acl)` on every access list of the seed-1 fleet —
/// every real ACL shape the generators emit — and returns how many it
/// visited. Stops after the first ACL that fails a check.
template <typename Fn>
std::size_t for_each_fleet_acl(Fn&& fn) {
  const auto fleet = synth::generate_fleet(1);
  std::size_t visited = 0;
  for (const auto& net : fleet.networks) {
    for (const auto& cfg : net.configs) {
      for (const auto& acl : cfg.access_lists) {
        fn(net.name, acl);
        ++visited;
        if (::testing::Test::HasFailure()) return visited;
      }
    }
  }
  return visited;
}

TEST(SymbolicDifferential, AclSelfEquivalenceAcrossFleet) {
  // Every packet filter in the fleet lowers to the same predicate twice,
  // and the equivalence decision recognizes it. Exercises the subtract /
  // emptiness path on every real ACL shape the generators emit.
  const auto checked = for_each_fleet_acl(
      [](const std::string& net, const config::AccessList& acl) {
        model::ProtocolDomain domain_a;
        const model::SymbolicPacketFilter a(acl, domain_a);
        model::ProtocolDomain domain_b;
        const model::SymbolicPacketFilter b(acl, domain_b);
        ASSERT_TRUE(a.permitted().equivalent(b.permitted()))
            << net << " acl " << acl.id;
      });
  EXPECT_GT(checked, 0u);
}

/// The cover search's shadowed clauses of `acl`, checked against the ones
/// the materialized lowering finds with an empty effective region.
std::vector<std::size_t> checked_shadowed_clauses(
    const config::AccessList& acl, const std::string& where) {
  model::ProtocolDomain domain_lowered;
  const model::SymbolicPacketFilter lowered(acl, domain_lowered);
  model::ProtocolDomain domain;
  auto searched = model::shadowed_clauses(acl, domain);
  EXPECT_EQ(searched, lowered.shadowed()) << where;
  return searched;
}

TEST(SymbolicDifferential, ShadowedClausesEqualLoweringAcrossFleet) {
  // On every fleet ACL and on two mutants of each: the first clause
  // repeated at the end (always a new shadow), and the first two clauses
  // swapped (which creates shadows on some lists and removes them on
  // others).
  std::size_t created = 0;
  std::size_t removed = 0;
  const auto checked = for_each_fleet_acl(
      [&](const std::string& net, const config::AccessList& acl) {
        const std::string where = net + " acl " + acl.id;
        const auto original = checked_shadowed_clauses(acl, where).size();
        if (acl.rules.empty()) return;
        auto repeated = acl;
        repeated.rules.push_back(acl.rules.front());
        checked_shadowed_clauses(repeated, where + " (first repeated)");
        if (acl.rules.size() < 2) return;
        auto swapped = acl;
        std::swap(swapped.rules[0], swapped.rules[1]);
        const auto after =
            checked_shadowed_clauses(swapped, where + " (first two swapped)")
                .size();
        created += after > original ? 1 : 0;
        removed += after < original ? 1 : 0;
      });
  EXPECT_GT(checked, 0u);
  EXPECT_GT(created, 0u);
  EXPECT_GT(removed, 0u);
}

TEST(SymbolicDifferential, MutatedAclIsNotEquivalent) {
  // Sanity check that equivalence is not trivially true: flipping one
  // clause's action, or deleting a live clause, must change the predicate.
  const auto fleet = synth::generate_fleet(1);
  std::size_t mutated = 0;
  for (const auto& net : fleet.networks) {
    if (mutated >= 25) break;
    for (const auto& cfg : net.configs) {
      if (mutated >= 25) break;
      for (const auto& acl : cfg.access_lists) {
        if (acl.rules.size() < 2) continue;
        model::ProtocolDomain domain;
        const model::SymbolicPacketFilter original(acl, domain);
        auto flipped = acl;
        flipped.rules[0].action =
            flipped.rules[0].action == config::FilterAction::kPermit
                ? config::FilterAction::kDeny
                : config::FilterAction::kPermit;
        model::ProtocolDomain domain_flipped;
        const model::SymbolicPacketFilter mutant(flipped, domain_flipped);
        // The first clause always has a nonempty effective region, so the
        // flip must move that region across the permit/deny divide.
        ASSERT_FALSE(original.permitted().equivalent(mutant.permitted()))
            << net.name << " acl " << acl.id;
        ++mutated;
        break;
      }
    }
  }
  EXPECT_GT(mutated, 0u);
}

TEST(SymbolicDifferential, IntentReportsByteIdenticalAcrossThreadCounts) {
  // An intent-bearing network runs RD052 (plus everything else) at 1, 2 and
  // 8 threads; the serialized reports must be byte-identical.
  const std::vector<std::string> texts{
      "hostname edge\n"
      "! rd-intent deny 10.1.0.0/24 10.3.0.0/24\n"
      "! rd-intent deny 10.1.0.0/24 10.2.0.0/24\n"
      "! rd-intent allow 10.1.0.0/24 10.2.0.0/24 udp 53\n"
      "interface FastEthernet0/0\n"
      " ip address 10.1.0.1 255.255.255.0\n"
      " ip access-group 101 in\n"
      "interface FastEthernet0/1\n"
      " ip address 10.2.0.1 255.255.255.0\n"
      "interface FastEthernet0/2\n"
      " ip address 10.3.0.1 255.255.255.0\n"
      "router ospf 1\n"
      " network 10.0.0.0 0.255.255.255 area 0\n"
      "access-list 101 deny ip any 10.3.0.0 0.0.0.255\n"
      "access-list 101 deny tcp any any eq 1433\n"
      "access-list 101 permit ip any any\n"};
  std::vector<config::RouterConfig> configs;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    configs.push_back(config::parse_config(texts[i], "edge.cfg").config);
  }
  const auto network = model::Network::build(std::move(configs));
  const auto engine = RuleEngine::with_default_rules();

  const auto serial = run_serial(engine, network);
  const auto serial_json = findings_to_json(engine, serial, "intent-net");
  // RD052 fired: the second intent is violated (10.2/24 is mostly open).
  bool saw_intent_violation = false;
  for (const auto& f : serial.findings) {
    if (f.rule_id == "RD052") saw_intent_violation = true;
  }
  EXPECT_TRUE(saw_intent_violation);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    const auto parallel = engine.run(network, pool);
    EXPECT_EQ(findings_to_json(engine, parallel, "intent-net"), serial_json)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace rd::analysis
