#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <utility>

#include "config/writer.h"
#include "graph/instances.h"
#include "synth/archetypes.h"
#include "synth/emit.h"
#include "synth/fleet.h"
#include "synth/plan.h"
#include "testutil.h"

namespace rd::synth {
namespace {

// --- AddressPlanner -----------------------------------------------------------

TEST(AddressPlanner, AllocatesSequentially) {
  AddressPlanner planner(rd::test::pfx("10.0.0.0/24"));
  EXPECT_EQ(planner.allocate(30).to_string(), "10.0.0.0/30");
  EXPECT_EQ(planner.allocate(30).to_string(), "10.0.0.4/30");
  EXPECT_EQ(planner.used(), 8u);
}

TEST(AddressPlanner, AlignsToBlockSize) {
  AddressPlanner planner(rd::test::pfx("10.0.0.0/16"));
  planner.allocate(30);                      // 10.0.0.0/30
  const auto big = planner.allocate(24);     // must skip to 10.0.1.0
  EXPECT_EQ(big.to_string(), "10.0.1.0/24");
}

TEST(AddressPlanner, ThrowsOnExhaustion) {
  AddressPlanner planner(rd::test::pfx("10.0.0.0/30"));
  planner.allocate(30);
  EXPECT_THROW(planner.allocate(30), std::length_error);
}

TEST(AddressPlanner, RejectsBadLength) {
  AddressPlanner planner(rd::test::pfx("10.0.0.0/24"));
  EXPECT_THROW(planner.allocate(16), std::length_error);  // wider than pool
}

// --- determinism ----------------------------------------------------------------

TEST(Synth, GeneratorsAreDeterministic) {
  ManagedEnterpriseParams p;
  p.seed = 9;
  p.regions = 2;
  p.spokes_per_region = 8;
  const auto a = make_managed_enterprise(p);
  const auto b = make_managed_enterprise(p);
  ASSERT_EQ(a.configs.size(), b.configs.size());
  for (std::size_t i = 0; i < a.configs.size(); ++i) {
    EXPECT_EQ(config::write_config(a.configs[i]),
              config::write_config(b.configs[i]));
  }
}

TEST(Synth, SeedChangesOutput) {
  ManagedEnterpriseParams p;
  p.regions = 2;
  p.spokes_per_region = 8;
  p.seed = 1;
  const auto a = make_managed_enterprise(p);
  p.seed = 2;
  const auto b = make_managed_enterprise(p);
  bool any_difference = a.configs.size() != b.configs.size();
  for (std::size_t i = 0; !any_difference && i < a.configs.size(); ++i) {
    any_difference = config::write_config(a.configs[i]) !=
                     config::write_config(b.configs[i]);
  }
  EXPECT_TRUE(any_difference);
}

// --- net5 calibration (paper §5.1 / §6.1) ------------------------------------------

class Net5Facts : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto net5 = make_net5();
    network_ = new model::Network(
        model::Network::build(reparse(net5.configs)));
    instances_ = new graph::InstanceSet(graph::compute_instances(*network_));
  }
  static void TearDownTestSuite() {
    delete instances_;
    delete network_;
    network_ = nullptr;
    instances_ = nullptr;
  }
  static model::Network* network_;
  static graph::InstanceSet* instances_;
};

model::Network* Net5Facts::network_ = nullptr;
graph::InstanceSet* Net5Facts::instances_ = nullptr;

TEST_F(Net5Facts, Has881Routers) {
  EXPECT_EQ(network_->router_count(), 881u);
}

TEST_F(Net5Facts, Has24RoutingInstances) {
  EXPECT_EQ(instances_->instances.size(), 24u);
}

TEST_F(Net5Facts, LargestInstanceHas445Routers) {
  std::size_t largest = 0;
  for (const auto& inst : instances_->instances) {
    largest = std::max(largest, inst.router_count());
  }
  EXPECT_EQ(largest, 445u);
}

TEST_F(Net5Facts, SmallestIgpInstanceIsOneRouter) {
  std::size_t smallest = 1u << 30;
  for (const auto& inst : instances_->instances) {
    if (config::is_conventional_igp(inst.protocol)) {
      smallest = std::min(smallest, inst.router_count());
    }
  }
  EXPECT_EQ(smallest, 1u);
}

TEST_F(Net5Facts, Has14InternalBgpAses) {
  std::set<std::uint32_t> ases;
  for (const auto& inst : instances_->instances) {
    if (inst.bgp_as) ases.insert(*inst.bgp_as);
  }
  EXPECT_EQ(ases.size(), 14u);
}

TEST_F(Net5Facts, Has16ExternalPeers) {
  std::size_t external = 0;
  for (const auto& session : network_->bgp_sessions()) {
    if (session.external()) ++external;
  }
  EXPECT_EQ(external, 16u);
}

TEST_F(Net5Facts, EigrpInstanceSizes445_64_32Present) {
  std::multiset<std::size_t> sizes;
  for (const auto& inst : instances_->instances) {
    if (inst.protocol == config::RoutingProtocol::kEigrp) {
      sizes.insert(inst.router_count());
    }
  }
  EXPECT_TRUE(sizes.contains(445));
  EXPECT_TRUE(sizes.contains(64));
  EXPECT_TRUE(sizes.contains(32));
}

TEST_F(Net5Facts, TaggedRedistributionPresent) {
  // The §6.1 design: routes are tagged as they enter the IGP.
  bool tagged = false;
  for (const auto& cfg : network_->routers()) {
    for (const auto& rm : cfg.route_maps) {
      for (const auto& clause : rm.clauses) {
        if (clause.set_tag) tagged = true;
      }
    }
  }
  EXPECT_TRUE(tagged);
}

TEST_F(Net5Facts, NoIbgpMeshAcrossCompartments) {
  // The design avoids a network-wide IBGP mesh: IBGP exists only inside
  // small per-region/border groups, far below a full mesh over BGP routers.
  std::set<model::RouterId> bgp_routers;
  std::size_t ibgp = 0;
  for (const auto& session : network_->bgp_sessions()) {
    if (!session.external() && !session.ebgp()) ++ibgp;
  }
  for (const auto& process : network_->processes()) {
    if (process.protocol == config::RoutingProtocol::kBgp) {
      bgp_routers.insert(process.router);
    }
  }
  const std::size_t n = bgp_routers.size();
  EXPECT_LT(ibgp, n * (n - 1) / 8);  // nowhere near a mesh
}

// --- fleet-level calibration (paper §4.2 / §7) ---------------------------------------

class FleetFacts : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { fleet_ = new Fleet(generate_fleet(42)); }
  static void TearDownTestSuite() {
    delete fleet_;
    fleet_ = nullptr;
  }
  static Fleet* fleet_;
};

Fleet* FleetFacts::fleet_ = nullptr;

TEST_F(FleetFacts, Has31Networks) { EXPECT_EQ(fleet_->networks.size(), 31u); }

TEST_F(FleetFacts, TotalRoutersNearPaper) {
  // Paper: 8,035 configs. Calibration target: within 15%.
  const auto total = fleet_->total_routers();
  EXPECT_GT(total, 7000u);
  EXPECT_LT(total, 9300u);
}

TEST_F(FleetFacts, FourBackbonesSizedLikePaper) {
  std::vector<std::size_t> sizes;
  for (const auto& net : fleet_->networks) {
    if (net.archetype == "backbone") sizes.push_back(net.configs.size());
  }
  ASSERT_EQ(sizes.size(), 4u);
  for (const auto s : sizes) {
    EXPECT_GE(s, 400u);
    EXPECT_LE(s, 600u);
  }
}

TEST_F(FleetFacts, SevenTextbookEnterprises) {
  std::size_t count = 0;
  for (const auto& net : fleet_->networks) {
    if (net.archetype == "textbook-enterprise") {
      ++count;
      EXPECT_GE(net.configs.size(), 19u);
      EXPECT_LE(net.configs.size(), 101u);
    }
  }
  EXPECT_EQ(count, 7u);
}

TEST_F(FleetFacts, ThreeNetworksWithoutBgp) {
  std::size_t count = 0;
  for (const auto& net : fleet_->networks) {
    bool uses_bgp = false;
    for (const auto& cfg : net.configs) {
      for (const auto& stanza : cfg.router_stanzas) {
        if (stanza.protocol == config::RoutingProtocol::kBgp) {
          uses_bgp = true;
        }
      }
    }
    if (!uses_bgp) ++count;
  }
  EXPECT_EQ(count, 3u);  // paper §5.2: three networks do not use BGP
}

TEST_F(FleetFacts, ThreeNetworksWithoutPacketFilters) {
  std::size_t count = 0;
  for (const auto& net : fleet_->networks) {
    bool has_filters = false;
    for (const auto& cfg : net.configs) {
      for (const auto& itf : cfg.interfaces) {
        if (itf.access_group_in || itf.access_group_out) has_filters = true;
      }
    }
    if (!has_filters) ++count;
  }
  EXPECT_EQ(count, 3u);  // paper §5.3 drops three filterless networks
}

TEST_F(FleetFacts, UniqueNetworkNames) {
  std::set<std::string> names;
  for (const auto& net : fleet_->networks) {
    EXPECT_TRUE(names.insert(net.name).second) << net.name;
  }
}

TEST_F(FleetFacts, FleetIsDeterministic) {
  const auto again = generate_fleet(42);
  ASSERT_EQ(again.networks.size(), fleet_->networks.size());
  for (std::size_t i = 0; i < again.networks.size(); ++i) {
    ASSERT_EQ(again.networks[i].configs.size(),
              fleet_->networks[i].configs.size());
    EXPECT_EQ(config::write_config(again.networks[i].configs[0]),
              config::write_config(fleet_->networks[i].configs[0]));
  }
}

TEST(Repository, SizeDistributionIsHeavyTailed) {
  const auto sizes = repository_network_sizes(7, 2400);
  ASSERT_EQ(sizes.size(), 2400u);
  std::size_t below10 = 0;
  std::size_t above640 = 0;
  for (const auto s : sizes) {
    if (s < 10) ++below10;
    if (s > 640) ++above640;
  }
  // Figure 8's known-network curve: most networks are small, few are huge.
  EXPECT_GT(below10, 2400u * 45 / 100);
  EXPECT_GT(above640, 0u);
  EXPECT_LT(above640, 2400u / 20);
}

// --- emit / load (the paper's config1..configN layout) --------------------------------

TEST(Emit, WritesAndLoadsBack) {
  TextbookEnterpriseParams p;
  p.routers = 8;
  const auto net = make_textbook_enterprise(p);
  const auto dir = std::filesystem::temp_directory_path() /
                   "rd_emit_test_dir";
  std::filesystem::remove_all(dir);
  const auto paths = emit_network(net.configs, dir);
  EXPECT_EQ(paths.size(), net.configs.size());
  EXPECT_TRUE(std::filesystem::exists(dir / "config1"));

  const auto loaded = load_network(dir);
  ASSERT_EQ(loaded.size(), net.configs.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].hostname, net.configs[i].hostname);
    EXPECT_EQ(loaded[i].interfaces, net.configs[i].interfaces);
    EXPECT_EQ(loaded[i].router_stanzas, net.configs[i].router_stanzas);
  }
  std::filesystem::remove_all(dir);
}

TEST(Emit, LoadOrdersNumerically) {
  // config10 must sort after config9.
  const auto dir = std::filesystem::temp_directory_path() /
                   "rd_emit_order_dir";
  std::filesystem::remove_all(dir);
  std::vector<config::RouterConfig> configs(11);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    // Built, then moved: GCC 12 at -O3 reports a false -Wrestrict on
    // `"r" + std::to_string(i)`, and on assigning "r" to the member.
    std::string hostname("r");
    hostname += std::to_string(i);
    configs[i].hostname = std::move(hostname);
  }
  emit_network(configs, dir);
  const auto loaded = load_network(dir);
  ASSERT_EQ(loaded.size(), 11u);
  EXPECT_EQ(loaded[9].hostname, "r9");
  EXPECT_EQ(loaded[10].hostname, "r10");
  std::filesystem::remove_all(dir);
}

TEST(Emit, ReparseKeepsCount) {
  NoBgpParams p;
  const auto net = make_no_bgp_enterprise(p);
  EXPECT_EQ(reparse(net.configs).size(), net.configs.size());
}

}  // namespace
}  // namespace rd::synth
