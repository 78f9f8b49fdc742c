#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "address_reference.h"
#include "graph/address_space.h"
#include "synth/emit.h"
#include "synth/fleet.h"
#include "testutil.h"
#include "util/rng.h"

namespace rd::graph {
namespace {

using rd::test::addr;
using rd::test::network_of;
using rd::test::pfx;

std::vector<ip::Prefix> roots_of(std::vector<ip::Prefix> subnets) {
  return extract_address_structure(std::move(subnets)).root_blocks();
}

TEST(AddressStructure, EmptyInput) {
  const auto s = extract_address_structure(std::vector<ip::Prefix>{});
  EXPECT_TRUE(s.nodes.empty());
  EXPECT_TRUE(s.roots.empty());
}

TEST(AddressStructure, SingleSubnetIsItsOwnRoot) {
  const auto roots = roots_of({pfx("10.0.0.0/24")});
  EXPECT_EQ(roots, (std::vector<ip::Prefix>{pfx("10.0.0.0/24")}));
}

TEST(AddressStructure, JoinsRunOfSlash30s) {
  // A run of /30s from one block plan joins into the covering block.
  std::vector<ip::Prefix> subnets;
  for (std::uint32_t i = 0; i < 16; ++i) {
    subnets.push_back(ip::Prefix(ip::Ipv4Address(0x0A000000u + i * 4), 30));
  }
  const auto roots = roots_of(subnets);
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0], pfx("10.0.0.0/26"));
}

TEST(AddressStructure, SeparatePlansStaySeparate) {
  const auto roots = roots_of({pfx("10.1.0.0/24"), pfx("10.1.1.0/24"),
                               pfx("192.168.7.0/24"), pfx("192.168.6.0/24")});
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_EQ(roots[0], pfx("10.1.0.0/23"));
  EXPECT_EQ(roots[1], pfx("192.168.6.0/23"));
}

TEST(AddressStructure, HalfUsedRuleBlocksSparseJoin) {
  // Two /24s eight blocks apart: any covering block would be < half used.
  const auto roots = roots_of({pfx("10.0.0.0/24"), pfx("10.0.8.0/24")});
  EXPECT_EQ(roots.size(), 2u);
}

TEST(AddressStructure, TreeHasConsistentParentChildLinks) {
  std::vector<ip::Prefix> subnets;
  for (std::uint32_t i = 0; i < 8; ++i) {
    subnets.push_back(ip::Prefix(ip::Ipv4Address(0x0A000000u + i * 256), 24));
  }
  const auto s = extract_address_structure(subnets);
  for (std::uint32_t n = 0; n < s.nodes.size(); ++n) {
    for (const auto child : s.nodes[n].children) {
      EXPECT_EQ(s.nodes[child].parent, static_cast<std::int32_t>(n));
      EXPECT_TRUE(s.nodes[n].block.contains(s.nodes[child].block));
    }
  }
  // Roots have no parent.
  for (const auto r : s.roots) EXPECT_EQ(s.nodes[r].parent, -1);
}

TEST(AddressStructure, LeavesAreInputSubnets) {
  const std::vector<ip::Prefix> input{pfx("10.0.0.0/24"), pfx("10.0.1.0/24")};
  const auto s = extract_address_structure(input);
  std::vector<ip::Prefix> leaves;
  for (const auto& node : s.nodes) {
    if (node.leaf) leaves.push_back(node.block);
  }
  std::sort(leaves.begin(), leaves.end());
  EXPECT_EQ(leaves, input);
}

TEST(AddressStructure, NestedInputSubnetsBecomeChildren) {
  const auto s = extract_address_structure(
      std::vector<ip::Prefix>{pfx("10.0.0.0/16"), pfx("10.0.5.0/24")});
  ASSERT_EQ(s.roots.size(), 1u);
  EXPECT_EQ(s.nodes[s.roots[0]].block, pfx("10.0.0.0/16"));
  ASSERT_EQ(s.nodes[s.roots[0]].children.size(), 1u);
  EXPECT_TRUE(s.nodes[s.roots[0]].leaf);  // the /16 is itself an input
}

TEST(AddressStructure, RootContaining) {
  const auto s = extract_address_structure(
      std::vector<ip::Prefix>{pfx("10.0.0.0/24"), pfx("192.168.0.0/24")});
  EXPECT_EQ(s.root_containing(addr("10.0.0.55")), 0);
  EXPECT_EQ(s.root_containing(addr("192.168.0.1")), 1);
  EXPECT_EQ(s.root_containing(addr("8.8.8.8")), -1);
}

TEST(AddressStructure, DuplicatesCollapse) {
  const auto roots = roots_of({pfx("10.0.0.0/24"), pfx("10.0.0.0/24")});
  EXPECT_EQ(roots.size(), 1u);
}

// --- the level-batched join against the one-join-per-pass loop ------------

using ip::reference::lowest_common_ancestor;

/// The join rule as first written, kept as the reference: every pass
/// rebuilds the prefix sums, scans every adjacent pair, and joins the one
/// eligible block with the longest LCA, lowest address first.
AddressSpaceStructure reference_structure(std::vector<ip::Prefix> subnets) {
  struct Active {
    ip::Prefix block;
    std::uint32_t node;
  };
  AddressSpaceStructure out;
  std::sort(subnets.begin(), subnets.end(),
            [](const ip::Prefix& a, const ip::Prefix& b) {
              if (a.network() != b.network()) {
                return a.network() < b.network();
              }
              return a.length() < b.length();
            });
  subnets.erase(std::unique(subnets.begin(), subnets.end()), subnets.end());

  std::vector<Active> active;
  std::vector<Active> containers;
  for (const ip::Prefix& subnet : subnets) {
    while (!containers.empty() && !containers.back().block.contains(subnet)) {
      containers.pop_back();
    }
    const auto id = static_cast<std::uint32_t>(out.nodes.size());
    out.nodes.push_back({subnet, -1, {}, true});
    if (!containers.empty()) {
      out.nodes[id].parent = static_cast<std::int32_t>(containers.back().node);
      out.nodes[containers.back().node].children.push_back(id);
    } else {
      active.push_back({subnet, id});
    }
    containers.push_back({subnet, id});
  }

  while (active.size() > 1) {
    std::vector<std::uint64_t> cum(active.size() + 1, 0);
    for (std::size_t i = 0; i < active.size(); ++i) {
      cum[i + 1] = cum[i] + active[i].block.size();
    }
    auto used_inside = [&](const ip::Prefix& block) {
      const auto lo = std::lower_bound(
          active.begin(), active.end(), block.network(),
          [](const Active& a, ip::Ipv4Address v) {
            return a.block.network() < v;
          });
      auto hi = lo;
      while (hi != active.end() && block.contains(hi->block)) ++hi;
      const auto lo_i = static_cast<std::size_t>(lo - active.begin());
      const auto hi_i = static_cast<std::size_t>(hi - active.begin());
      return cum[hi_i] - cum[lo_i];
    };

    int best_length = -1;
    ip::Prefix best_block;
    for (std::size_t i = 0; i + 1 < active.size(); ++i) {
      const ip::Prefix lca =
          lowest_common_ancestor(active[i].block, active[i + 1].block);
      const int shorter =
          std::min(active[i].block.length(), active[i + 1].block.length());
      if (shorter - lca.length() > 2) continue;
      if (lca.length() == 0) continue;
      if (used_inside(lca) * 2 < lca.size()) continue;
      if (lca.length() > best_length) {
        best_length = lca.length();
        best_block = lca;
      }
    }
    if (best_length < 0) break;

    const auto parent_id = static_cast<std::uint32_t>(out.nodes.size());
    out.nodes.push_back({best_block, -1, {}, false});
    std::vector<Active> next;
    next.reserve(active.size());
    bool inserted = false;
    for (const Active& a : active) {
      if (best_block.contains(a.block)) {
        out.nodes[a.node].parent = static_cast<std::int32_t>(parent_id);
        out.nodes[parent_id].children.push_back(a.node);
        if (!inserted) {
          next.push_back({best_block, parent_id});
          inserted = true;
        }
      } else {
        next.push_back(a);
      }
    }
    active = std::move(next);
  }

  out.roots.reserve(active.size());
  for (const Active& a : active) out.roots.push_back(a.node);
  return out;
}

/// The first node or root where two trees differ, or "" when they are equal
/// node for node (block, parent, child order, leaf flag) and root for root.
std::string first_difference(const AddressSpaceStructure& got,
                             const AddressSpaceStructure& want) {
  if (got.nodes.size() != want.nodes.size()) {
    return "node count " + std::to_string(got.nodes.size()) + " vs " +
           std::to_string(want.nodes.size());
  }
  for (std::size_t i = 0; i < got.nodes.size(); ++i) {
    const auto& a = got.nodes[i];
    const auto& b = want.nodes[i];
    if (a.block != b.block || a.parent != b.parent ||
        a.children != b.children || a.leaf != b.leaf) {
      return "node " + std::to_string(i) + ": " + a.block.to_string() +
             " vs " + b.block.to_string();
    }
  }
  if (got.roots != want.roots) return "roots";
  return "";
}

std::string describe(const std::vector<ip::Prefix>& subnets) {
  std::string out;
  for (const auto& subnet : subnets) out += subnet.to_string() + " ";
  return out;
}

/// The fleet's networks split four ways by index. The reference takes
/// seconds on the largest managed networks, so the shards run as separate
/// test cases, side by side.
class LevelBatchedJoinOnTheFleet : public testing::TestWithParam<int> {};

TEST_P(LevelBatchedJoinOnTheFleet, EqualsReference) {
  const auto fleet = synth::generate_fleet(1);
  ASSERT_EQ(fleet.networks.size(), 31u);
  std::size_t joined = 0;
  for (std::size_t i = static_cast<std::size_t>(GetParam());
       i < fleet.networks.size(); i += 4) {
    const auto& net = fleet.networks[i];
    const auto network = model::Network::build(synth::reparse(net.configs));
    const auto subnets = network.interface_subnets();
    const auto got = extract_address_structure(subnets);
    EXPECT_EQ(first_difference(got, reference_structure(subnets)), "")
        << net.name;
    joined += got.nodes.size() - subnets.size();
  }
  EXPECT_GT(joined, 1000u);  // the fleet's plans really are joined
}

INSTANTIATE_TEST_SUITE_P(AddressStructure, LevelBatchedJoinOnTheFleet,
                         testing::Range(0, 4));

/// A random subnet set: a few dense address plans (/12 to /22) with
/// subnets from /16 to /32 drawn inside them, plus nested subnets,
/// duplicates, and strays anywhere in the address space.
std::vector<ip::Prefix> random_subnets(util::Rng& rng) {
  std::vector<ip::Prefix> plans;
  for (auto n = rng.range(1, 3); n > 0; --n) {
    const auto length = static_cast<int>(rng.range(12, 22));
    plans.push_back(ip::Prefix(
        ip::Ipv4Address(static_cast<std::uint32_t>(rng.next())), length));
  }
  std::vector<ip::Prefix> out;
  for (auto n = rng.range(0, 120); n > 0; --n) {
    const double kind = rng.uniform();
    if (!out.empty() && kind < 0.08) {
      out.push_back(out[rng.below(out.size())]);  // duplicate
    } else if (!out.empty() && kind < 0.16) {
      const auto outer = out[rng.below(out.size())];  // nested
      out.push_back(ip::Prefix(
          ip::Ipv4Address(outer.network().value() +
                          static_cast<std::uint32_t>(rng.below(outer.size()))),
          static_cast<int>(rng.range(outer.length(), 32))));
    } else if (kind < 0.2) {
      out.push_back(ip::Prefix(  // stray
          ip::Ipv4Address(static_cast<std::uint32_t>(rng.next())),
          static_cast<int>(rng.range(16, 32))));
    } else {
      const auto plan = plans[rng.below(plans.size())];
      const int shortest = std::max(16, plan.length() + 2);
      out.push_back(ip::Prefix(
          ip::Ipv4Address(plan.network().value() +
                          static_cast<std::uint32_t>(rng.below(plan.size()))),
          static_cast<int>(rng.range(shortest, 32))));
    }
  }
  return out;
}

TEST(AddressStructure, LevelBatchedJoinEqualsReferenceOnRandomSubnets) {
  util::Rng rng(20041);
  std::size_t joined = 0;
  for (int round = 0; round < 6000; ++round) {
    const auto subnets = random_subnets(rng);
    const auto got = extract_address_structure(subnets);
    const auto diff = first_difference(got, reference_structure(subnets));
    ASSERT_EQ(diff, "") << "round " << round << ": " << describe(subnets);
    for (const auto& node : got.nodes) joined += node.leaf ? 0 : 1;
  }
  EXPECT_GT(joined, 20000u);  // the sets exercise the join, not just leaves
}

// --- instance-block association (paper §3.4 first use) -------------------------

TEST(BlocksPerInstance, AssociatesCoveredSubnets) {
  const auto net = network_of(
      {"hostname a\n"
       "interface FastEthernet0/0\n ip address 10.1.0.1 255.255.255.0\n"
       "interface FastEthernet0/1\n ip address 10.1.1.1 255.255.255.0\n"
       "router ospf 1\n network 10.1.0.0 0.0.255.255 area 0\n",
       "hostname b\n"
       "interface FastEthernet0/0\n ip address 192.168.0.1 255.255.255.0\n"
       "router ospf 1\n network 192.168.0.0 0.0.255.255 area 0\n"});
  const auto instances = compute_instances(net);
  const auto structure = extract_address_structure(net);
  const auto blocks = blocks_per_instance(net, instances, structure);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].size(), 1u);
  EXPECT_EQ(blocks[1].size(), 1u);
  EXPECT_NE(blocks[0][0], blocks[1][0]);
}

// --- missing-router detection (paper §3.4 second use) ---------------------------

TEST(MissingRouter, DetectsHoleInInternalBlock) {
  // Six /30s from one block plan, five fully populated, one half-populated
  // (the missing router). The heuristic should flag the orphan interface.
  std::vector<std::string> texts;
  for (int i = 0; i < 6; ++i) {
    const std::string base = "10.0.0." + std::to_string(i * 4);
    const std::string a = "10.0.0." + std::to_string(i * 4 + 1);
    const std::string b = "10.0.0." + std::to_string(i * 4 + 2);
    texts.push_back("hostname a" + std::to_string(i) +
                    "\ninterface Serial0/0 point-to-point\n ip address " + a +
                    " 255.255.255.252\n");
    if (i != 5) {  // the 6th peer's config is "missing from the data set"
      texts.push_back("hostname b" + std::to_string(i) +
                      "\ninterface Serial0/0 point-to-point\n ip address " +
                      b + " 255.255.255.252\n");
    }
  }
  const auto net = network_of(texts);
  const auto structure = extract_address_structure(net);
  const auto suspects = detect_missing_routers(net, structure, 0.8);
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(net.interfaces()[suspects[0].interface].address->to_string(),
            "10.0.0.21");
  EXPECT_GE(suspects[0].internal_fraction, 0.8);
}

TEST(MissingRouter, TrueEdgeBlockNotFlagged) {
  // External-facing interfaces drawn from their own block (as the paper
  // says many networks do) should not be flagged.
  std::vector<std::string> texts;
  for (int i = 0; i < 6; ++i) {
    texts.push_back(
        "hostname e" + std::to_string(i) +
        "\ninterface Serial0/0 point-to-point\n ip address 66.0.0." +
        std::to_string(i * 4 + 1) + " 255.255.255.252\n");
  }
  const auto net = network_of(texts);
  const auto structure = extract_address_structure(net);
  EXPECT_TRUE(detect_missing_routers(net, structure, 0.8).empty());
}

}  // namespace
}  // namespace rd::graph
