// Fleet-wide invariants: properties every network of the synthetic fleet
// must satisfy. These act as a regression net over the generators AND
// demonstrate the §8.1 audit checks passing on a well-formed fleet.

#include <gtest/gtest.h>

#include "analysis/ibgp.h"
#include "analysis/ospf_areas.h"
#include "analysis/rules.h"
#include "analysis/whatif.h"
#include "graph/address_space.h"
#include "graph/instances.h"
#include "model/network.h"
#include "synth/emit.h"
#include "synth/fleet.h"
#include "testutil.h"

namespace rd {
namespace {

using rd::test::run_serial;

class FleetInvariants : public ::testing::Test {
 protected:
  struct Entry {
    std::string name;
    model::Network network;
    graph::InstanceSet instances;
  };

  static void SetUpTestSuite() {
    const auto fleet = synth::generate_fleet(42);
    entries_ = new std::vector<Entry>();
    for (const auto& net : fleet.networks) {
      Entry entry{net.name,
                  model::Network::build(synth::reparse(net.configs)),
                  {}};
      entry.instances = graph::compute_instances(entry.network);
      entries_->push_back(std::move(entry));
    }
  }
  static void TearDownTestSuite() {
    delete entries_;
    entries_ = nullptr;
  }
  static std::vector<Entry>* entries_;
};

std::vector<FleetInvariants::Entry>* FleetInvariants::entries_ = nullptr;

TEST_F(FleetInvariants, InstancePartitionIsConsistent) {
  for (const auto& entry : *entries_) {
    ASSERT_EQ(entry.instances.instance_of.size(),
              entry.network.processes().size())
        << entry.name;
    std::size_t total = 0;
    for (const auto& instance : entry.instances.instances) {
      total += instance.processes.size();
      EXPECT_FALSE(instance.routers.empty()) << entry.name;
    }
    EXPECT_EQ(total, entry.network.processes().size()) << entry.name;
  }
}

TEST_F(FleetInvariants, EveryLinkHasConsistentInterfaces) {
  for (const auto& entry : *entries_) {
    for (const auto& link : entry.network.links()) {
      ASSERT_FALSE(link.interfaces.empty()) << entry.name;
      for (const auto i : link.interfaces) {
        const auto& itf = entry.network.interfaces()[i];
        ASSERT_TRUE(itf.subnet.has_value()) << entry.name;
        EXPECT_EQ(*itf.subnet, link.subnet) << entry.name;
      }
    }
  }
}

TEST_F(FleetInvariants, NoOrphanOspfAreasAnywhere) {
  for (const auto& entry : *entries_) {
    const auto report =
        analysis::analyze_ospf_areas(entry.network, entry.instances);
    EXPECT_EQ(report.total_orphan_areas(), 0u) << entry.name;
  }
}

TEST_F(FleetInvariants, NoIbgpSignalingHolesAnywhere) {
  // Private AS numbers are reused across compartments (multiple
  // components per AS is normal); what must never happen is a signaling
  // hole *inside* a session-connected component.
  for (const auto& entry : *entries_) {
    for (const auto& as_entry :
         analysis::analyze_ibgp(entry.network, entry.instances)) {
      EXPECT_EQ(as_entry.disconnected_pairs, 0u)
          << entry.name << " AS " << as_entry.as_number;
    }
  }
}

TEST_F(FleetInvariants, AddressStructureCoversAllSubnets) {
  for (const auto& entry : *entries_) {
    const auto structure = graph::extract_address_structure(entry.network);
    const auto roots = structure.root_blocks();
    for (const auto& subnet : entry.network.interface_subnets()) {
      bool covered = false;
      for (const auto& root : roots) {
        covered = covered || root.contains(subnet);
      }
      EXPECT_TRUE(covered) << entry.name << " " << subnet.to_string();
    }
    // The recovered plan is drastically smaller than the raw subnet list.
    if (entry.network.interface_subnets().size() > 50) {
      EXPECT_LT(roots.size(),
                entry.network.interface_subnets().size() / 4)
          << entry.name;
    }
  }
}

TEST_F(FleetInvariants, ExternalFacingImpliesNoResolvedPeer) {
  for (const auto& entry : *entries_) {
    for (const auto& link : entry.network.links()) {
      if (link.subnet.length() != 30 || link.external_facing) continue;
      // Internal /30s must have both usable addresses present.
      EXPECT_EQ(link.interfaces.size(), 2u)
          << entry.name << " " << link.subnet.to_string();
    }
  }
}

TEST_F(FleetInvariants, ArticulationAnalysisRunsEverywhere) {
  // Not an invariant on the count (hub-and-spoke designs legitimately have
  // cut routers) — but the analysis must succeed on every instance shape
  // the fleet produces, and cut routers must belong to their instance.
  for (const auto& entry : *entries_) {
    const auto cuts = analysis::instance_articulation_routers(
        entry.network, entry.instances);
    for (const auto& cut : cuts) {
      const auto& routers =
          entry.instances.instances[cut.instance].routers;
      EXPECT_TRUE(std::find(routers.begin(), routers.end(), cut.router) !=
                  routers.end())
          << entry.name;
    }
  }
}

TEST_F(FleetInvariants, NoErrorSeverityDesignRuleFindings) {
  // Warnings and info findings are expected (the generators deliberately
  // leave §8-style design smells in place), but an error-severity finding
  // means a generator emitted a broken network — the same contract the
  // example demos rely on to exit 0.
  const auto engine = analysis::RuleEngine::with_default_rules();
  for (const auto& entry : *entries_) {
    const auto result = run_serial(engine, entry.network);
    EXPECT_EQ(result.errors, 0u) << entry.name;
    if (result.errors != 0) {
      for (const auto& f : result.findings) {
        if (f.severity == analysis::Severity::kError) {
          ADD_FAILURE() << entry.name << ": " << f.rule_id << " "
                        << f.router_name << " " << f.subject << ": "
                        << f.detail;
        }
      }
    }
  }
}

}  // namespace
}  // namespace rd
