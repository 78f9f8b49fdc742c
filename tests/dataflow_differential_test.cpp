// Differential suite for the instance dataflow behind RD060-RD064:
// `analysis::InstanceDataflow` against the original semi-naïve engine kept
// in dataflow_reference.h. Both must hold the same number of facts, find
// the same loop events (edge, origin) with the same exit router and
// witness, and the same entries (origin, instance) through the same edge.
//
// The corpus: managed seeds 1-8, net5, every network of
// `generate_fleet(1)` (one test each, so the large ones shard), and every
// plant the mutation differential suite makes. RD_FUZZ_SEEDS (default 2)
// is the number of injection seeds per defect kind, as there.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dataflow.h"
#include "dataflow_reference.h"
#include "graph/instances.h"
#include "model/network.h"
#include "synth/archetypes.h"
#include "synth/emit.h"
#include "synth/fleet.h"
#include "synth/mutate.h"
#include "testutil.h"

namespace rd::analysis {
namespace {

using rd::test::env_u64;

const synth::Fleet& fleet() {
  static const synth::Fleet f = synth::generate_fleet(1);
  return f;
}

std::string describe(const DataflowEdge& edge) {
  std::string out = edge.kind == DataflowEdge::Kind::kSession ? "session "
                                                              : "redist ";
  out += std::to_string(edge.from) + "->" + std::to_string(edge.to);
  out += " at " + std::to_string(edge.router) + "/" +
         std::to_string(edge.exit_router);
  out += " line " + std::to_string(edge.line);
  return out;
}

std::string describe(model::RouterId exit, const model::Route& witness) {
  std::string out = "exit " + std::to_string(exit) + " witness ";
  out += witness.prefix.to_string();
  if (witness.tag) out += " tag " + std::to_string(*witness.tag);
  return out;
}

/// Both engines on one network, compared key by key.
void expect_same(const model::Network& network, const std::string& label) {
  SCOPED_TRACE(label);
  const auto graph = graph::InstanceGraph::build(network);
  const InstanceDataflow flow(network, graph);
  const reference::Dataflow ref = reference::run(network, graph);

  EXPECT_EQ(flow.fact_count(), ref.total_facts) << "facts";
  EXPECT_EQ(flow.converged(), ref.converged);

  std::vector<std::string> edges, ref_edges;
  for (const auto& edge : flow.edges()) edges.push_back(describe(edge));
  for (const auto& edge : ref.edges) ref_edges.push_back(describe(edge));
  EXPECT_EQ(edges, ref_edges) << "edges";

  using LoopKey = std::pair<std::size_t, std::uint32_t>;  // (edge, origin)
  std::map<LoopKey, std::string> loops, ref_loops;
  for (const auto& e : flow.loop_events()) {
    loops[{e.edge, e.origin}] = describe(e.exit_router, e.witness);
  }
  for (const auto& e : ref.loop_events) {
    ref_loops[{e.edge, e.origin}] = describe(e.exit_router, e.witness);
  }
  EXPECT_EQ(flow.loop_events().size(), loops.size()) << "duplicate loop keys";
  EXPECT_EQ(loops, ref_loops) << "loop events";

  using EntryKey = std::pair<std::uint32_t, std::uint32_t>;  // (origin, inst)
  std::map<EntryKey, std::size_t> entries, ref_entries;
  for (const auto& e : flow.entries()) {
    entries[{e.origin, e.instance}] = e.edge;
  }
  for (const auto& e : ref.entries) {
    ref_entries[{e.origin, e.instance}] = e.edge;
  }
  EXPECT_EQ(flow.entries().size(), entries.size()) << "duplicate entry keys";
  EXPECT_EQ(entries, ref_entries) << "entries";
}

TEST(DataflowDifferential, ManagedSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    synth::ManagedEnterpriseParams params;
    params.seed = seed;
    expect_same(model::Network::build(
                    synth::make_managed_enterprise(params).configs),
                "managed seed " + std::to_string(seed));
  }
}

TEST(DataflowDifferential, Net5) {
  expect_same(model::Network::build(synth::make_net5().configs), "net5");
}

class FleetDataflow : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FleetDataflow, MatchesReference) {
  const auto& net = fleet().networks[GetParam()];
  auto configs = net.configs;
  expect_same(model::Network::build(std::move(configs)), net.name);
}

std::vector<std::size_t> fleet_indexes() {
  std::vector<std::size_t> out(fleet().networks.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = i;
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Fleet, FleetDataflow, ::testing::ValuesIn(fleet_indexes()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      std::string name = fleet().networks[info.param].name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

/// The plants of mutation_differential_test: per defect kind and injection
/// seed, the first fleet network that accepts one.
class PlantedDataflow : public ::testing::TestWithParam<synth::DefectKind> {};

TEST_P(PlantedDataflow, MatchesReference) {
  const auto seeds = env_u64("RD_FUZZ_SEEDS", 2);
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    bool planted = false;
    for (const auto& net : fleet().networks) {
      synth::SynthNetwork copy = net;
      if (!synth::inject_defect(copy, GetParam(), seed)) continue;
      planted = true;
      expect_same(model::Network::build(synth::reparse(copy.configs)),
                  net.name + " seed " + std::to_string(seed));
      break;
    }
    EXPECT_TRUE(planted) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Plants, PlantedDataflow,
    ::testing::Values(synth::DefectKind::kRedistributionLoop,
                      synth::DefectKind::kMetricLoss,
                      synth::DefectKind::kDistanceInversion,
                      synth::DefectKind::kUnfilteredMutual,
                      synth::DefectKind::kSinglePointRedistribution),
    [](const ::testing::TestParamInfo<synth::DefectKind>& info) {
      return synth::defect_rule_id(info.param);
    });

}  // namespace
}  // namespace rd::analysis
