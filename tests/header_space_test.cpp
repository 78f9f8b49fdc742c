// Unit tests for the symbolic header-space layer: the HeaderPredicate
// union-of-boxes algebra (intersect / subtract / emptiness / equivalence,
// with the port-line edges 0, 65535 and kNoPort and prefix aliasing), the
// cover search against the materialized subtract, the SymbolicPacketFilter
// ACL lowering with its golden shadowed-clause fixtures, and the HeaderSpace
// pair predicates and intent verification against hand-computable two-LAN
// networks.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "analysis/header_space.h"
#include "analysis/packet_reachability.h"
#include "config/writer.h"
#include "graph/instances.h"
#include "model/header_predicate.h"
#include "model/policy.h"
#include "testutil.h"
#include "util/rng.h"

namespace rd::analysis {
namespace {

using model::HeaderAtom;
using model::HeaderPredicate;
using model::kAllProtocols;
using model::kNoPort;
using model::ProtocolDomain;
using rd::test::addr;
using rd::test::network_of;
using rd::test::parse;
using rd::test::pfx;

HeaderAtom atom(std::string_view src, std::string_view dst,
                std::uint64_t protocols = kAllProtocols,
                std::uint32_t port_lo = 0, std::uint32_t port_hi = kNoPort) {
  HeaderAtom a;
  a.source = pfx(src);
  a.destination = pfx(dst);
  a.protocols = protocols;
  a.port_lo = port_lo;
  a.port_hi = port_hi;
  return a;
}

// --- prefix difference -------------------------------------------------------

TEST(PrefixDifference, DisjointAndCovering) {
  EXPECT_TRUE(model::prefix_difference(pfx("10.0.0.0/16"), pfx("10.0.0.0/8"))
                  .empty());
  const auto same =
      model::prefix_difference(pfx("10.0.0.0/16"), pfx("10.0.0.0/16"));
  EXPECT_TRUE(same.empty());
  const auto disjoint =
      model::prefix_difference(pfx("10.0.0.0/16"), pfx("10.1.0.0/16"));
  ASSERT_EQ(disjoint.size(), 1u);
  EXPECT_EQ(disjoint[0], pfx("10.0.0.0/16"));
}

TEST(PrefixDifference, BuddyWalk) {
  // 10.0.0.0/14 minus 10.1.128.0/17 = the buddies along the path, emitted
  // coarsest-first. Every address is in exactly one output piece.
  const auto parts =
      model::prefix_difference(pfx("10.0.0.0/14"), pfx("10.1.128.0/17"));
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], pfx("10.2.0.0/15"));
  EXPECT_EQ(parts[1], pfx("10.0.0.0/16"));
  EXPECT_EQ(parts[2], pfx("10.1.0.0/17"));
  for (const auto& p : parts) {
    EXPECT_FALSE(p.overlaps(pfx("10.1.128.0/17"))) << p.to_string();
    EXPECT_TRUE(pfx("10.0.0.0/14").contains(p));
  }
}

TEST(PrefixDifference, HostAliasingEdges) {
  // Removing one host from a /31 leaves exactly its buddy host route.
  const auto parts =
      model::prefix_difference(pfx("10.0.0.0/31"), pfx("10.0.0.1/32"));
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], pfx("10.0.0.0/32"));
  // Removing a host from 0.0.0.0/0 produces all 32 sibling prefixes.
  EXPECT_EQ(
      model::prefix_difference(pfx("0.0.0.0/0"), pfx("255.255.255.255/32"))
          .size(),
      32u);
}

TEST(PrefixDifference, SubtractPrefixSplitsInPlace) {
  // The one piece containing the hole is replaced, in its slot, by its
  // difference; pieces inside the hole go; disjoint pieces stay put.
  std::vector<ip::Prefix> region{pfx("9.0.0.0/8"), pfx("10.0.0.0/14"),
                                 pfx("11.0.0.0/8")};
  model::subtract_prefix(region, pfx("10.1.128.0/17"));
  EXPECT_EQ(region, (std::vector<ip::Prefix>{
                        pfx("9.0.0.0/8"), pfx("10.2.0.0/15"),
                        pfx("10.0.0.0/16"), pfx("10.1.0.0/17"),
                        pfx("11.0.0.0/8")}));
  model::subtract_prefix(region, pfx("10.0.0.0/8"));
  EXPECT_EQ(region,
            (std::vector<ip::Prefix>{pfx("9.0.0.0/8"), pfx("11.0.0.0/8")}));
  model::subtract_prefix(region, pfx("12.0.0.0/8"));
  EXPECT_EQ(region.size(), 2u);
  model::subtract_prefix(region, pfx("0.0.0.0/0"));
  EXPECT_TRUE(region.empty());
}

// --- predicate algebra -------------------------------------------------------

TEST(HeaderPredicate, EmptinessAndAll) {
  EXPECT_TRUE(HeaderPredicate::none().is_empty());
  EXPECT_FALSE(HeaderPredicate::all().is_empty());
  // Empty atoms are never stored.
  HeaderPredicate p;
  p.unite(atom("10.0.0.0/8", "0.0.0.0/0", 0));            // no protocols
  p.unite(atom("10.0.0.0/8", "0.0.0.0/0", kAllProtocols,  // inverted ports
                5, 4));
  EXPECT_TRUE(p.is_empty());
}

TEST(HeaderPredicate, MembershipPortEdges) {
  const auto p = HeaderPredicate::of(
      atom("10.0.0.0/8", "0.0.0.0/0", kAllProtocols, 0, 65535));
  EXPECT_TRUE(p.contains(addr("10.1.2.3"), addr("1.2.3.4"), 1, 0));
  EXPECT_TRUE(p.contains(addr("10.1.2.3"), addr("1.2.3.4"), 1, 65535));
  // kNoPort (the portless packet) lies outside the real-port interval.
  EXPECT_FALSE(p.contains(addr("10.1.2.3"), addr("1.2.3.4"), 1, kNoPort));
  EXPECT_TRUE(HeaderPredicate::all().contains(addr("10.1.2.3"),
                                              addr("1.2.3.4"), 1, kNoPort));
}

TEST(HeaderPredicate, IntersectPicksLongerPrefixAndTightenedRanges) {
  const auto a = HeaderPredicate::of(
      atom("10.0.0.0/8", "0.0.0.0/0", 0b0110, 0, 100));
  const auto b = HeaderPredicate::of(
      atom("10.1.0.0/16", "20.0.0.0/8", 0b0100, 50, kNoPort));
  const auto both = a.intersect(b);
  ASSERT_EQ(both.atom_count(), 1u);
  const auto& got = both.atoms()[0];
  EXPECT_EQ(got.source, pfx("10.1.0.0/16"));
  EXPECT_EQ(got.destination, pfx("20.0.0.0/8"));
  EXPECT_EQ(got.protocols, 0b0100u);
  EXPECT_EQ(got.port_lo, 50u);
  EXPECT_EQ(got.port_hi, 100u);
  // Disjoint on any one coordinate means an empty intersection.
  EXPECT_TRUE(a.intersect(HeaderPredicate::of(
                   atom("11.0.0.0/8", "0.0.0.0/0")))
                  .is_empty());
  EXPECT_TRUE(a.intersect(HeaderPredicate::of(
                   atom("10.0.0.0/8", "0.0.0.0/0", 0b1000)))
                  .is_empty());
  EXPECT_TRUE(a.intersect(HeaderPredicate::of(
                   atom("10.0.0.0/8", "0.0.0.0/0", 0b0110, 101, 200)))
                  .is_empty());
}

TEST(HeaderPredicate, SubtractPeelsEveryCoordinate) {
  const auto whole = HeaderPredicate::all();
  const auto hole = atom("10.0.0.0/8", "20.0.0.0/8", 0b1, 80, 80);
  const auto rest = whole.subtract(hole);
  EXPECT_FALSE(rest.is_empty());
  // Headers in the hole are gone; headers differing in exactly one
  // coordinate remain.
  EXPECT_FALSE(rest.contains(addr("10.1.1.1"), addr("20.1.1.1"), 0b1, 80));
  EXPECT_TRUE(rest.contains(addr("11.1.1.1"), addr("20.1.1.1"), 0b1, 80));
  EXPECT_TRUE(rest.contains(addr("10.1.1.1"), addr("21.1.1.1"), 0b1, 80));
  EXPECT_TRUE(rest.contains(addr("10.1.1.1"), addr("20.1.1.1"), 0b10, 80));
  EXPECT_TRUE(rest.contains(addr("10.1.1.1"), addr("20.1.1.1"), 0b1, 79));
  EXPECT_TRUE(rest.contains(addr("10.1.1.1"), addr("20.1.1.1"), 0b1, 81));
  EXPECT_TRUE(rest.contains(addr("10.1.1.1"), addr("20.1.1.1"), 0b1, kNoPort));
  // Subtracting the rest back leaves exactly the hole.
  const auto back = whole.subtract(rest);
  EXPECT_TRUE(back.equivalent(HeaderPredicate::of(hole)));
}

TEST(HeaderPredicate, SubtractPortEdgeZeroAndMax) {
  const auto p = HeaderPredicate::of(atom("0.0.0.0/0", "0.0.0.0/0",
                                          kAllProtocols, 0, kNoPort));
  // Carving out port 0 must not underflow below the line's origin.
  const auto no_zero =
      p.subtract(atom("0.0.0.0/0", "0.0.0.0/0", kAllProtocols, 0, 0));
  EXPECT_FALSE(no_zero.contains(addr("1.1.1.1"), addr("2.2.2.2"), 1, 0));
  EXPECT_TRUE(no_zero.contains(addr("1.1.1.1"), addr("2.2.2.2"), 1, 1));
  // Carving out the top point kNoPort must not overflow past it.
  const auto no_top = p.subtract(
      atom("0.0.0.0/0", "0.0.0.0/0", kAllProtocols, kNoPort, kNoPort));
  EXPECT_TRUE(no_top.contains(addr("1.1.1.1"), addr("2.2.2.2"), 1, 65535));
  EXPECT_FALSE(no_top.contains(addr("1.1.1.1"), addr("2.2.2.2"), 1, kNoPort));
}

TEST(HeaderPredicate, EquivalenceSeesThroughRepresentation) {
  // {10.0.0.0/7} == {10.0.0.0/8} ∪ {11.0.0.0/8} even though the atom lists
  // differ.
  auto split = HeaderPredicate::of(atom("10.0.0.0/8", "0.0.0.0/0"));
  split.unite(atom("11.0.0.0/8", "0.0.0.0/0"));
  const auto joined = HeaderPredicate::of(atom("10.0.0.0/7", "0.0.0.0/0"));
  EXPECT_TRUE(split.equivalent(joined));
  EXPECT_TRUE(joined.equivalent(split));
  // ...and a one-host difference breaks it.
  auto nearly = split;
  nearly = nearly.subtract(atom("10.255.255.255/32", "0.0.0.0/0"));
  EXPECT_FALSE(nearly.equivalent(joined));
  EXPECT_FALSE(joined.equivalent(nearly));
}

TEST(HeaderPredicate, NormalizeDropsCoveredAtomsDeterministically) {
  HeaderPredicate p;
  p.unite(atom("10.1.0.0/16", "0.0.0.0/0", kAllProtocols, 80, 80));
  p.unite(atom("10.0.0.0/8", "0.0.0.0/0"));
  p.normalize();
  ASSERT_EQ(p.atom_count(), 1u);
  EXPECT_EQ(p.atoms()[0].source, pfx("10.0.0.0/8"));
  const auto w = p.witness();
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->source, addr("10.0.0.0"));
  EXPECT_EQ(w->protocol_bit, 0);
  EXPECT_EQ(w->port, 0u);
}

// --- cover search ------------------------------------------------------------

TEST(CoverSearch, UnionOfTwoPartialBoxes) {
  // Neither box covers the atom alone: one stops at port 100, the other
  // starts at port 50 and misses half the sources.
  auto boxes = HeaderPredicate::of(
      atom("10.0.0.0/8", "0.0.0.0/0", kAllProtocols, 0, 100));
  boxes.unite(atom("10.0.0.0/9", "0.0.0.0/0", kAllProtocols, 50, kNoPort));
  const auto target = atom("10.0.0.0/9", "20.0.0.0/8", 0b10, 0, kNoPort);
  EXPECT_FALSE(boxes.atoms()[0].covers(target));
  EXPECT_FALSE(boxes.atoms()[1].covers(target));
  EXPECT_TRUE(boxes.covers(target));
  // Widening the target into the half only the first box holds breaks it.
  EXPECT_FALSE(boxes.covers(atom("10.0.0.0/8", "20.0.0.0/8", 0b10)));
}

TEST(CoverSearch, RemainderOnlyOnNoPort) {
  // Every real port is covered; only the portless packet is left.
  auto ports = HeaderPredicate::of(
      atom("0.0.0.0/0", "0.0.0.0/0", kAllProtocols, 0, 65535));
  const auto everything = atom("0.0.0.0/0", "0.0.0.0/0");
  EXPECT_FALSE(ports.covers(everything));
  EXPECT_FALSE(ports.covers(
      atom("10.1.2.3/32", "10.4.5.6/32", 0b1, kNoPort, kNoPort)));
  EXPECT_TRUE(ports.covers(
      atom("0.0.0.0/0", "0.0.0.0/0", kAllProtocols, 65535, 65535)));
  ports.unite(atom("0.0.0.0/0", "0.0.0.0/0", kAllProtocols, kNoPort, kNoPort));
  EXPECT_TRUE(ports.covers(everything));
}

TEST(CoverSearch, RemainderOnlyOnOneProtocolBit) {
  constexpr std::uint64_t kBit = 1ULL << 5;
  auto protocols = HeaderPredicate::of(
      atom("0.0.0.0/0", "0.0.0.0/0", kAllProtocols & ~kBit));
  EXPECT_FALSE(protocols.covers(atom("0.0.0.0/0", "0.0.0.0/0")));
  EXPECT_FALSE(
      protocols.covers(atom("10.1.2.3/32", "10.4.5.6/32", kBit, 80, 80)));
  EXPECT_TRUE(protocols.covers(atom("0.0.0.0/0", "0.0.0.0/0", 0b11111)));
  protocols.unite(atom("0.0.0.0/0", "0.0.0.0/0", kBit));
  EXPECT_TRUE(protocols.covers(atom("0.0.0.0/0", "0.0.0.0/0")));
}

TEST(CoverSearch, RemainderOnlyOnOneSourceHost) {
  // The 32 siblings along 10.1.2.3/32's trie path tile every source but it.
  HeaderPredicate others;
  for (const auto& src :
       model::prefix_difference(pfx("0.0.0.0/0"), pfx("10.1.2.3/32"))) {
    others.unite(atom(src.to_string(), "0.0.0.0/0"));
  }
  ASSERT_EQ(others.atom_count(), 32u);
  EXPECT_FALSE(others.covers(atom("0.0.0.0/0", "0.0.0.0/0")));
  EXPECT_FALSE(
      others.covers(atom("10.1.2.3/32", "10.4.5.6/32", 0b1, 80, 80)));
  EXPECT_TRUE(others.covers(atom("10.1.2.2/32", "0.0.0.0/0")));
  EXPECT_TRUE(others.covers(atom("10.1.2.4/30", "0.0.0.0/0")));
  others.unite(atom("10.1.2.3/32", "0.0.0.0/0"));
  EXPECT_TRUE(others.covers(atom("0.0.0.0/0", "0.0.0.0/0")));
}

TEST(CoverSearch, EmptyBoxList) {
  const auto none = HeaderPredicate::none();
  EXPECT_FALSE(none.covers(atom("10.1.2.3/32", "10.4.5.6/32", 0b1, 80, 80)));
  EXPECT_FALSE(none.covers(HeaderPredicate::all()));
  EXPECT_TRUE(none.covers(HeaderPredicate::none()));
  // An empty atom is covered by anything, nothing included.
  EXPECT_TRUE(none.covers(atom("10.0.0.0/8", "0.0.0.0/0", 0)));
  EXPECT_TRUE(none.covers(
      atom("10.0.0.0/8", "0.0.0.0/0", kAllProtocols, 81, 80)));
}

/// A random atom over a deliberately small universe — addresses inside
/// 10.0.0.0/29 or the whole line, three protocol bits or every protocol,
/// ports at the edges of the line — so random boxes overlap often. A
/// `narrow` atom has one protocol bit and one port, so a handful of boxes
/// covers it often enough for the cover decision to come out both ways.
HeaderAtom random_atom(util::Rng& rng, bool narrow = false) {
  static const char* kPrefixes[] = {
      "0.0.0.0/0",   "10.0.0.0/29", "10.0.0.0/30", "10.0.0.4/30",
      "10.0.0.0/31", "10.0.0.2/31", "10.0.0.6/31", "10.0.0.1/32",
      "10.0.0.4/32", "10.0.0.7/32"};
  static const std::uint32_t kPorts[] = {0, 1, 80, 65535, kNoPort};
  const auto pick_prefix = [&] {
    return std::string(kPrefixes[rng.below(std::size(kPrefixes))]);
  };
  std::uint32_t lo = kPorts[rng.below(std::size(kPorts))];
  std::uint32_t hi = narrow ? lo : kPorts[rng.below(std::size(kPorts))];
  if (lo > hi) std::swap(lo, hi);
  std::uint64_t protocols = 1ULL << rng.below(3);
  if (!narrow) protocols = rng.chance(0.15) ? kAllProtocols : 1 + rng.below(7);
  return atom(pick_prefix(), pick_prefix(), protocols, lo, hi);
}

TEST(CoverSearch, AgreesWithMaterializedSubtractOnRandomPredicates) {
  util::Rng rng(0xC0DE5EA2C4ULL);
  std::size_t covered = 0;
  std::size_t uncovered = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    HeaderPredicate boxes;
    const auto box_count = rng.range(0, 10);
    for (std::int64_t i = 0; i < box_count; ++i) boxes.unite(random_atom(rng));
    const auto target = random_atom(rng, rng.chance(0.5));
    const bool expected =
        HeaderPredicate::of(target).subtract(boxes).is_empty();
    ASSERT_EQ(boxes.covers(target), expected)
        << "trial " << trial << "\nboxes:\n"
        << boxes.to_string(ProtocolDomain())
        << "target:\n"
        << HeaderPredicate::of(target).to_string(ProtocolDomain());
    (expected ? covered : uncovered) += 1;
    // The predicate form agrees with its own subtract too.
    HeaderPredicate targets = HeaderPredicate::of(target);
    targets.unite(random_atom(rng));
    ASSERT_EQ(boxes.covers(targets), targets.subtract(boxes).is_empty())
        << "trial " << trial;
  }
  EXPECT_GT(covered, 500u);
  EXPECT_GT(uncovered, 500u);
}

TEST(ProtocolDomain, InterningAndWildcards) {
  ProtocolDomain domain;
  EXPECT_EQ(domain.clause_mask("ip"), kAllProtocols);
  const auto tcp = domain.clause_mask("tcp");
  const auto udp = domain.clause_mask("udp");
  EXPECT_NE(tcp, udp);
  EXPECT_EQ(domain.clause_mask("tcp"), tcp);  // stable on re-intern
  EXPECT_EQ(domain.packet_bit("tcp"), tcp);
  // The unspecified-protocol packet owns bit 0 and matches only wildcards.
  EXPECT_EQ(domain.packet_bit("ip"), 1ULL);
  EXPECT_EQ((tcp | udp) & 1ULL, 0ULL);
  // Never-interned packet protocols share the reserved unknown bit, which
  // no clause mask contains.
  EXPECT_EQ(domain.packet_bit("gre"),
            1ULL << ProtocolDomain::kUnknownBit);
  EXPECT_EQ(domain.bit_name(0), "ip");
  EXPECT_EQ(domain.bit_name(ProtocolDomain::kUnknownBit), "other");
}

// --- SymbolicPacketFilter ----------------------------------------------------

config::AccessList acl_of(std::string_view config_text,
                          std::string_view id = "101") {
  const auto cfg = parse(std::string("hostname x\n") +
                         std::string(config_text));
  const auto* acl = cfg.find_access_list(id);
  EXPECT_NE(acl, nullptr);
  return *acl;
}

TEST(SymbolicPacketFilter, GoldenShadowedExtendedClauses) {
  // Clause 3 is shadowed by the union of clauses 1 and 2; clause 4 by
  // clause 1 alone (narrower port set, same addresses). The RD008
  // heuristic sees neither: both are extended.
  const auto acl = acl_of(
      "access-list 101 permit tcp any any eq 80\n"
      "access-list 101 deny tcp any 10.0.0.0 0.255.255.255\n"
      "access-list 101 deny tcp any 10.1.0.0 0.0.255.255 eq 80\n"
      "access-list 101 deny tcp 10.2.0.0 0.0.255.255 any eq 80\n"
      "access-list 101 permit ip any any\n");
  model::ProtocolDomain domain;
  const model::SymbolicPacketFilter symbolic(acl, domain);
  EXPECT_EQ(symbolic.shadowed(), (std::vector<std::size_t>{2, 3}));
}

TEST(SymbolicPacketFilter, PortOnlyDistinctionIsNotShadowing) {
  const auto acl = acl_of(
      "access-list 101 deny tcp any any eq 80\n"
      "access-list 101 deny tcp any any eq 443\n"
      "access-list 101 permit tcp any any\n");
  model::ProtocolDomain domain;
  const model::SymbolicPacketFilter symbolic(acl, domain);
  EXPECT_TRUE(symbolic.shadowed().empty());
  // The permit set is exactly tcp minus ports {80, 443}: the portless tcp
  // packet and every other port pass.
  const auto tcp = domain.packet_bit("tcp");
  const auto& permitted = symbolic.permitted();
  EXPECT_FALSE(permitted.contains(addr("1.1.1.1"), addr("2.2.2.2"), tcp, 80));
  EXPECT_FALSE(permitted.contains(addr("1.1.1.1"), addr("2.2.2.2"), tcp, 443));
  EXPECT_TRUE(permitted.contains(addr("1.1.1.1"), addr("2.2.2.2"), tcp, 81));
  EXPECT_TRUE(
      permitted.contains(addr("1.1.1.1"), addr("2.2.2.2"), tcp, kNoPort));
}

TEST(SymbolicPacketFilter, MatchesConcreteEvaluatorPointwise) {
  const auto acl = acl_of(
      "access-list 101 permit tcp host 10.1.0.10 host 10.2.0.5 eq 1433\n"
      "access-list 101 deny tcp any any eq 1433\n"
      "access-list 101 deny udp 10.3.0.0 0.0.255.255 any\n"
      "access-list 101 permit ip any any\n");
  model::ProtocolDomain domain;
  const model::SymbolicPacketFilter symbolic(acl, domain);
  const std::vector<std::string> protocols{"ip", "tcp", "udp", "icmp"};
  const std::vector<std::optional<std::uint16_t>> ports{
      std::nullopt, 0, 80, 1433, 65535};
  const std::vector<ip::Ipv4Address> hosts{
      addr("10.1.0.10"), addr("10.2.0.5"), addr("10.3.9.9"), addr("8.8.8.8")};
  for (const auto& proto : protocols) {
    for (const auto& port : ports) {
      for (const auto src : hosts) {
        for (const auto dst : hosts) {
          const bool concrete =
              model::acl_permits_packet(acl, src, dst, port, proto);
          const bool symbolic_verdict = symbolic.permitted().contains(
              src, dst, domain.packet_bit(proto),
              port ? *port : kNoPort);
          EXPECT_EQ(concrete, symbolic_verdict)
              << proto << ' ' << src.to_string() << " -> " << dst.to_string()
              << " port " << (port ? std::to_string(*port) : "none");
        }
      }
    }
  }
}

TEST(SymbolicPacketFilter, SelfEquivalenceAndComplement) {
  const auto acl = acl_of(
      "access-list 101 deny tcp any any eq 23\n"
      "access-list 101 permit tcp any 10.0.0.0 0.255.255.255\n"
      "access-list 101 deny ip any any\n");
  model::ProtocolDomain domain;
  const model::SymbolicPacketFilter a(acl, domain);
  const model::SymbolicPacketFilter b(acl, domain);
  EXPECT_TRUE(a.permitted().equivalent(b.permitted()));
  // permitted ∪ denied == everything, and they are disjoint: the effective
  // regions partition the full space between permit and deny clauses plus
  // the implicit deny.
  const auto denied = HeaderPredicate::all().subtract(a.permitted());
  EXPECT_TRUE(denied.intersect(a.permitted()).is_empty());
  auto whole = a.permitted();
  whole.unite(denied);
  EXPECT_TRUE(whole.equivalent(HeaderPredicate::all()));
}

// --- HeaderSpace -------------------------------------------------------------

struct Fixture {
  model::Network network;
  graph::InstanceSet instances;
  ReachabilityAnalysis routes;

  explicit Fixture(std::vector<std::string> texts)
      : network(network_of(std::move(texts))),
        instances(graph::compute_instances(network)),
        routes(ReachabilityAnalysis::run(network, instances)) {}
};

Fixture filtered_fixture() {
  return Fixture(
      {"hostname a\n"
       "interface FastEthernet0/0\n"
       " ip address 10.1.0.1 255.255.255.0\n"
       " ip access-group 101 in\n"
       "interface FastEthernet0/1\n"
       " ip address 10.2.0.1 255.255.255.0\n"
       "router ospf 1\n"
       " network 10.1.0.0 0.0.255.255 area 0\n"
       " network 10.2.0.0 0.0.255.255 area 0\n"
       "access-list 101 permit tcp host 10.1.0.10 host 10.2.0.5 eq 1433\n"
       "access-list 101 deny tcp any any eq 1433\n"
       "access-list 101 permit ip any any\n"});
}

TEST(HeaderSpace, AttachmentRegionsMirrorMostSpecificFirstWins) {
  // A /24 carved by a more-specific /26 on another interface, plus an
  // exact-duplicate subnet pair where the first interface takes the tie.
  const auto fixture = Fixture(
      {"hostname a\n"
       "interface FastEthernet0/0\n"
       " ip address 10.1.0.1 255.255.255.0\n"
       "interface FastEthernet0/1\n"
       " ip address 10.1.0.65 255.255.255.192\n"
       "interface FastEthernet0/2\n"
       " ip address 10.9.0.1 255.255.255.0\n",
       "hostname b\n"
       "interface FastEthernet0/0\n"
       " ip address 10.9.0.2 255.255.255.0\n"});
  HeaderSpace space(fixture.network, fixture.instances, fixture.routes);
  const PacketReachability concrete(fixture.network, fixture.instances,
                                    fixture.routes);
  // The /26 shadows a quarter of the /24. Regions sort by Prefix's
  // (length, network) order: the /25 piece precedes the /26 piece.
  const auto& region0 = space.attachment_region(0);
  ASSERT_EQ(region0.size(), 2u);
  EXPECT_EQ(region0[0], pfx("10.1.0.128/25"));
  EXPECT_EQ(region0[1], pfx("10.1.0.0/26"));
  // The duplicate 10.9.0.0/24: interface 2 (router a) wins, b's region is
  // empty.
  EXPECT_EQ(space.attachment_region(2).size(), 1u);
  EXPECT_TRUE(space.attachment_region(3).empty());
  // Pointwise agreement with the concrete resolver on a probe set that
  // straddles every boundary.
  for (const auto probe :
       {addr("10.1.0.3"), addr("10.1.0.64"), addr("10.1.0.127"),
        addr("10.1.0.128"), addr("10.9.0.7"), addr("172.16.0.1")}) {
    const auto symbolic_itf = space.attachment_interface(probe);
    FlowQuery q;
    q.source = probe;
    q.destination = addr("172.31.0.1");
    const bool concrete_attached =
        concrete.evaluate(q) != FlowVerdict::kSourceNotAttached;
    EXPECT_EQ(symbolic_itf.has_value(), concrete_attached)
        << probe.to_string();
  }
}

TEST(HeaderSpace, PairPredicateMatchesConcreteProbes) {
  const auto fixture = filtered_fixture();
  HeaderSpace space(fixture.network, fixture.instances, fixture.routes);
  const PacketReachability concrete(fixture.network, fixture.instances,
                                    fixture.routes);
  const std::vector<std::string> protocols{"ip", "tcp", "udp"};
  const std::vector<std::optional<std::uint16_t>> ports{std::nullopt, 80,
                                                        1433};
  for (const auto& proto : protocols) {
    for (const auto& port : ports) {
      for (const auto src : {addr("10.1.0.10"), addr("10.1.0.11")}) {
        FlowQuery q;
        q.source = src;
        q.destination = addr("10.2.0.5");
        q.protocol = proto;
        q.destination_port = port;
        EXPECT_EQ(space.passes(q),
                  concrete.evaluate(q) == FlowVerdict::kPossiblyReachable)
            << proto << " from " << src.to_string() << " port "
            << (port ? std::to_string(*port) : "none");
      }
    }
  }
  // The pair predicate itself: exactly one host may speak tcp/1433.
  const auto& pred = space.pair_predicate(0, 1);
  const auto tcp = space.protocol_domain().packet_bit("tcp");
  EXPECT_TRUE(pred.contains(addr("10.1.0.10"), addr("10.2.0.5"), tcp, 1433));
  EXPECT_FALSE(pred.contains(addr("10.1.0.11"), addr("10.2.0.5"), tcp, 1433));
}

TEST(HeaderSpace, IntentVerification) {
  // net15-style restricted subnet: the deny intent holds for 10.3.*, is
  // violated for the unfiltered 10.2.*, and the allow intent surfaces the
  // filtered tcp/1433 slice as its witness.
  auto texts = std::vector<std::string>{
      "hostname a\n"
      "! rd-intent deny 10.1.0.0/24 10.3.0.0/24\n"
      "! rd-intent deny 10.1.0.0/24 10.2.0.0/24\n"
      "! rd-intent allow 10.1.0.0/24 10.2.0.0/24\n"
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
  const auto fixture = Fixture(std::move(texts));
  const auto intents = collect_intents(fixture.network);
  ASSERT_EQ(intents.size(), 3u);
  EXPECT_EQ(intents[0].describe(), "deny 10.1.0.0/24 -> 10.3.0.0/24");
  const auto outcomes = verify_intents(fixture.network, fixture.instances,
                                       fixture.routes, intents);
  ASSERT_EQ(outcomes.size(), 3u);
  // Everything toward 10.3.0.0/24 is dropped at the ingress filter.
  EXPECT_TRUE(outcomes[0].holds);
  EXPECT_FALSE(outcomes[0].witness.has_value());
  // Toward 10.2.0.0/24 most traffic passes: deny violated, with a
  // deterministic witness inside the intent region.
  ASSERT_FALSE(outcomes[1].holds);
  ASSERT_TRUE(outcomes[1].witness.has_value());
  EXPECT_EQ(outcomes[1].witness->source, addr("10.1.0.0"));
  EXPECT_EQ(outcomes[1].witness->destination, addr("10.2.0.0"));
  // The allow intent fails on exactly the tcp/1433 slice.
  ASSERT_FALSE(outcomes[2].holds);
  ASSERT_TRUE(outcomes[2].witness.has_value());
  EXPECT_EQ(outcomes[2].witness->protocol, "tcp");
  ASSERT_TRUE(outcomes[2].witness->port.has_value());
  EXPECT_EQ(*outcomes[2].witness->port, 1433);
}

TEST(HeaderSpace, IntentDirectiveParsingRoundTrip) {
  const auto cfg = parse(
      "hostname a\n"
      "! rd-intent deny 10.1.0.0/16 10.2.0.0/16 tcp 23\n"
      "! rd-intent allow 10.0.0.0/8 10.0.0.0/8\n"
      "! rd-intent bogus nonsense here\n"
      "! rd-intent deny not-a-prefix 10.0.0.0/8\n"
      "interface FastEthernet0/0\n"
      " ip address 10.1.0.1 255.255.255.0\n");
  ASSERT_EQ(cfg.intents.size(), 2u);
  EXPECT_FALSE(cfg.intents[0].expect_reachable);
  EXPECT_EQ(cfg.intents[0].source, pfx("10.1.0.0/16"));
  EXPECT_EQ(cfg.intents[0].destination, pfx("10.2.0.0/16"));
  EXPECT_EQ(cfg.intents[0].protocol, "tcp");
  ASSERT_TRUE(cfg.intents[0].port.has_value());
  EXPECT_EQ(*cfg.intents[0].port, 23);
  EXPECT_TRUE(cfg.intents[1].expect_reachable);
  EXPECT_EQ(cfg.intents[1].protocol, "ip");
  EXPECT_FALSE(cfg.intents[1].port.has_value());
  // The writer emits directives the parser reads back identically.
  const auto rewritten = parse(config::write_config(cfg));
  EXPECT_EQ(rewritten.intents, cfg.intents);
}

}  // namespace
}  // namespace rd::analysis
