// Differential tests for the paper's §3.4 address-block join: the roots of
// `graph::extract_address_structure` (the level-batched join every audit
// runs) must equal the cover that `reference::cover_half_used`
// (address_reference.h, the join as first written) computes from the same
// subnets. The inputs are every `generate_fleet(1)` network (one test
// each), managed seeds 1-3, net15, net5, seeded random prefix sets, and
// the hand-picked cases below, which also pin what the reference returns.
//
// Stress volume is dialable: RD_FUZZ_SEEDS sets how many seeds draw random
// prefix sets (default 8, 250 sets each).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "address_reference.h"
#include "graph/address_space.h"
#include "ip/ipv4.h"
#include "model/network.h"
#include "synth/archetypes.h"
#include "synth/fleet.h"
#include "testutil.h"
#include "util/rng.h"

namespace rd::ip {
namespace {

using reference::remove_contained;

std::string describe(const std::vector<Prefix>& prefixes) {
  std::string out;
  for (const auto& prefix : prefixes) out += prefix.to_string() + " ";
  return out;
}

/// The reference cover of `prefixes`, after checking that the product
/// join's roots are the same blocks.
std::vector<Prefix> cover(const std::vector<Prefix>& prefixes) {
  const auto want = reference::cover_half_used(prefixes);
  auto sorted = want;
  std::sort(sorted.begin(), sorted.end());  // root_blocks()'s order
  EXPECT_EQ(graph::extract_address_structure(prefixes).root_blocks(), sorted)
      << describe(prefixes);
  return want;
}

void expect_roots_equal(const model::Network& network) {
  const auto subnets = network.interface_subnets();
  ASSERT_FALSE(subnets.empty());
  const auto roots = cover(subnets);
  EXPECT_LT(roots.size(), subnets.size());  // the plan really is joined
}

// --- hand-picked cases --------------------------------------------------------

TEST(Aggregate, RemoveContained) {
  auto out = remove_contained({*Prefix::parse("10.0.0.0/8"),
                               *Prefix::parse("10.1.0.0/16"),
                               *Prefix::parse("11.0.0.0/8"),
                               *Prefix::parse("10.0.0.0/8")});
  EXPECT_EQ(out, (std::vector<Prefix>{*Prefix::parse("10.0.0.0/8"),
                                      *Prefix::parse("11.0.0.0/8")}));
}

TEST(Aggregate, HalfUsedJoinsNearbySubnets) {
  // Two /24s two bits apart: the /22 is exactly half used -> joined.
  auto out = cover({*Prefix::parse("10.0.0.0/24"),
                    *Prefix::parse("10.0.2.0/24")});
  EXPECT_EQ(out, (std::vector<Prefix>{*Prefix::parse("10.0.0.0/22")}));
}

TEST(Aggregate, HalfUsedRespectsTwoBitLimit) {
  // Three bits apart: the join would need a /21 only 1/4 used -> no join.
  auto out = cover({*Prefix::parse("10.0.0.0/24"),
                    *Prefix::parse("10.0.4.0/24")});
  EXPECT_EQ(out.size(), 2u);
}

TEST(Aggregate, HalfUsedBuildsHierarchy) {
  // Four /26s inside one /24 plus a neighbour /24 -> one /23 root.
  auto out = cover(
      {*Prefix::parse("10.0.0.0/26"), *Prefix::parse("10.0.0.64/26"),
       *Prefix::parse("10.0.0.128/26"), *Prefix::parse("10.0.0.192/26"),
       *Prefix::parse("10.0.1.0/24")});
  EXPECT_EQ(out, (std::vector<Prefix>{*Prefix::parse("10.0.0.0/23")}));
}

TEST(Aggregate, HalfUsedKeepsDistantBlocksApart) {
  auto out = cover({*Prefix::parse("10.0.0.0/24"),
                    *Prefix::parse("192.168.0.0/24")});
  EXPECT_EQ(out.size(), 2u);
}

TEST(Aggregate, CoverAlwaysCoversInput) {
  util::Rng rng(7);
  std::vector<Prefix> input;
  for (int i = 0; i < 150; ++i) {
    const auto base = static_cast<std::uint32_t>(rng.next());
    input.emplace_back(Ipv4Address(base),
                       static_cast<int>(20 + rng.below(11)));
  }
  const auto output = cover(input);
  for (const Prefix& p : input) {
    bool covered = false;
    for (const Prefix& q : output) covered = covered || q.contains(p);
    EXPECT_TRUE(covered) << p.to_string();
  }
  // Output prefixes are mutually disjoint.
  for (std::size_t i = 0; i < output.size(); ++i) {
    for (std::size_t j = i + 1; j < output.size(); ++j) {
      EXPECT_FALSE(output[i].overlaps(output[j]));
    }
  }
}

// A full run of /24s under one /16 joins into the covering prefix when the
// count is a power of two.
class AggregateRunTest : public ::testing::TestWithParam<int> {};

TEST_P(AggregateRunTest, FullRunsCollapse) {
  const int log2_count = GetParam();
  const int count = 1 << log2_count;
  std::vector<Prefix> input;
  for (int i = 0; i < count; ++i) {
    input.emplace_back(
        Ipv4Address(0x0A000000u + (static_cast<std::uint32_t>(i) << 8)), 24);
  }
  const auto out = cover(input);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].length(), 24 - log2_count);
  EXPECT_EQ(out[0].network().to_string(), "10.0.0.0");
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, AggregateRunTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8));

// --- generated networks -------------------------------------------------------

TEST(AddressJoinDifferential, ManagedSeeds) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("managed seed " + std::to_string(seed));
    synth::ManagedEnterpriseParams params;
    params.seed = seed;
    expect_roots_equal(
        model::Network::build(synth::make_managed_enterprise(params).configs));
  }
}

TEST(AddressJoinDifferential, Net15AndNet5) {
  expect_roots_equal(model::Network::build(synth::make_net15().configs));
  expect_roots_equal(model::Network::build(synth::make_net5().configs));
}

/// `generate_fleet(1)`, generated once per process.
const synth::Fleet& fleet() {
  static const synth::Fleet f = synth::generate_fleet(1);
  return f;
}

class FleetAddressJoin : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FleetAddressJoin, RootsEqualReference) {
  auto configs = fleet().networks[GetParam()].configs;
  expect_roots_equal(model::Network::build(std::move(configs)));
}

std::vector<std::size_t> fleet_indexes() {
  std::vector<std::size_t> out(fleet().networks.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = i;
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Fleet, FleetAddressJoin, ::testing::ValuesIn(fleet_indexes()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      std::string name = fleet().networks[info.param].name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- seeded random prefix sets ------------------------------------------------

/// 1-200 prefixes: most at /20-/30 inside one of a few /14-/20 plans, so
/// that blocks join, the rest anywhere at /8-/32; duplicates and nested
/// prefixes arise among them.
std::vector<Prefix> random_prefixes(util::Rng& rng) {
  std::vector<Prefix> plans;
  for (auto n = rng.range(1, 3); n > 0; --n) {
    plans.emplace_back(Ipv4Address(static_cast<std::uint32_t>(rng.next())),
                       static_cast<int>(rng.range(14, 20)));
  }
  std::vector<Prefix> out;
  for (auto n = rng.range(1, 200); n > 0; --n) {
    if (rng.chance(0.1)) {
      out.emplace_back(Ipv4Address(static_cast<std::uint32_t>(rng.next())),
                       static_cast<int>(rng.range(8, 32)));
      continue;
    }
    const Prefix& plan = plans[rng.below(plans.size())];
    out.emplace_back(
        Ipv4Address(plan.network().value() +
                    static_cast<std::uint32_t>(rng.below(plan.size()))),
        static_cast<int>(rng.range(std::max(20, plan.length()), 30)));
  }
  return out;
}

TEST(AddressJoinDifferential, SeededRandomPrefixSets) {
  const std::uint64_t seeds = test::env_u64("RD_FUZZ_SEEDS", 8);
  std::size_t joined = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    util::Rng rng(seed);
    for (int set = 0; set < 250; ++set) {
      const auto prefixes = random_prefixes(rng);
      joined += remove_contained(prefixes).size() - cover(prefixes).size();
      if (HasFailure()) {
        FAIL() << "seed " << seed << ", set " << set;
      }
    }
  }
  EXPECT_GT(joined, 1000u * seeds);  // the sets exercise the join
}

}  // namespace
}  // namespace rd::ip
