// Differential serial-vs-parallel harness: the parallel pipeline must be
// byte-identical to the serial reference at every thread count, for every
// synth archetype and several seeds. Identity is checked through three
// serializations — the model signature JSON (pipeline::network_signature),
// the re-emitted per-router configuration text, and the instance-graph DOT —
// plus the full fleet-analysis reports. A `Stress.`-prefixed repeated-run
// suite hunts nondeterminism flakes (filter with `ctest -R Stress` or
// `--gtest_filter=Stress.*`).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "config/writer.h"
#include "graph/dot.h"
#include "graph/instances.h"
#include "pipeline/pipeline.h"
#include "synth/archetypes.h"

namespace rd {
namespace {

std::vector<std::string> texts_of(const synth::SynthNetwork& net) {
  std::vector<std::string> texts;
  texts.reserve(net.configs.size());
  for (const auto& cfg : net.configs) {
    texts.push_back(config::write_config(cfg));
  }
  return texts;
}

/// Every serialization the differential check compares.
struct PipelineOutput {
  std::string signature;   // model JSON (network_signature)
  std::string configs;     // re-emitted router configs, concatenated
  std::string dot;         // instance-graph DOT
  std::string report;      // fleet-analysis report JSON
};

PipelineOutput output_of(const std::string& name,
                         const model::Network& network) {
  PipelineOutput out;
  out.signature = pipeline::network_signature(network);
  for (const auto& cfg : network.routers()) {
    out.configs += config::write_config(cfg);
    out.configs += '\n';
  }
  out.dot = graph::to_dot(network, graph::InstanceGraph::build(network));
  out.report = pipeline::analyze_network(name, network).json;
  return out;
}

/// Deliberately small parameter sets: the differential suite covers every
/// archetype generator at several seeds and 3 thread counts, so per-network
/// cost must stay low.
std::vector<synth::SynthNetwork> archetype_networks(std::uint64_t seed) {
  std::vector<synth::SynthNetwork> nets;

  synth::BackboneParams bb;
  bb.seed = seed;
  bb.core_routers = 4;
  bb.access_routers = 12;
  bb.external_peers = 20;
  nets.push_back(synth::make_backbone(bb));

  synth::TextbookEnterpriseParams te;
  te.seed = seed;
  te.routers = 16;
  te.igp_instances = 2;
  nets.push_back(synth::make_textbook_enterprise(te));

  synth::Tier2Params t2;
  t2.seed = seed;
  t2.core_routers = 3;
  t2.edge_routers = 8;
  nets.push_back(synth::make_tier2_isp(t2));

  synth::ManagedEnterpriseParams me;
  me.seed = seed;
  me.regions = 2;
  me.spokes_per_region = 6;
  me.igp_edge_rate = 0.2;
  me.ebgp_spoke_rate = 0.2;
  nets.push_back(synth::make_managed_enterprise(me));

  synth::NoBgpParams nb;
  nb.seed = seed;
  nb.routers = 8;
  nb.edge = synth::NoBgpParams::Edge::kRip;
  nets.push_back(synth::make_no_bgp_enterprise(nb));

  synth::MergedHybridParams mh;
  mh.seed = seed;
  mh.ospf_side_routers = 6;
  mh.eigrp_side_routers = 6;
  nets.push_back(synth::make_merged_hybrid(mh));

  return nets;
}

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

class ParallelPipelineDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelPipelineDifferential, MatchesSerialAcrossArchetypes) {
  const auto seed = GetParam();
  for (const auto& net : archetype_networks(seed)) {
    const auto texts = texts_of(net);
    const auto serial = output_of(
        net.name, pipeline::build_network_serial(texts));
    for (const auto threads : kThreadCounts) {
      util::ThreadPool pool(threads);
      const auto parallel = output_of(
          net.name, pipeline::build_network_parallel(texts, pool));
      const auto label = net.archetype + " seed " + std::to_string(seed) +
                         " threads " + std::to_string(threads);
      EXPECT_EQ(parallel.signature, serial.signature) << label;
      EXPECT_EQ(parallel.configs, serial.configs) << label;
      EXPECT_EQ(parallel.dot, serial.dot) << label;
      EXPECT_EQ(parallel.report, serial.report) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelPipelineDifferential,
                         ::testing::Values(1u, 7u, 42u));

TEST(ParallelPipeline, Net15CaseStudyMatchesSerial) {
  const auto net15 = synth::make_net15();
  const auto texts = texts_of(net15);
  const auto serial =
      output_of(net15.name, pipeline::build_network_serial(texts));
  for (const auto threads : kThreadCounts) {
    util::ThreadPool pool(threads);
    const auto parallel = output_of(
        net15.name, pipeline::build_network_parallel(texts, pool));
    EXPECT_EQ(parallel.signature, serial.signature) << threads;
    EXPECT_EQ(parallel.dot, serial.dot) << threads;
    EXPECT_EQ(parallel.report, serial.report) << threads;
  }
}

TEST(ParallelPipeline, FleetReportsMergeInIndexOrder) {
  std::vector<pipeline::FleetInput> inputs;
  for (const auto& net : archetype_networks(11)) {
    inputs.push_back({net.name, texts_of(net)});
  }
  const auto serial = pipeline::analyze_fleet_serial(inputs);
  ASSERT_EQ(serial.size(), inputs.size());
  for (const auto threads : kThreadCounts) {
    util::ThreadPool pool(threads);
    const auto parallel = pipeline::analyze_fleet_parallel(inputs, pool);
    ASSERT_EQ(parallel.size(), serial.size()) << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      const auto label =
          inputs[i].name + " threads " + std::to_string(threads);
      EXPECT_EQ(parallel[i].name, serial[i].name) << label;
      EXPECT_EQ(parallel[i].archetype, serial[i].archetype) << label;
      EXPECT_EQ(parallel[i].routers, serial[i].routers) << label;
      EXPECT_EQ(parallel[i].links, serial[i].links) << label;
      EXPECT_EQ(parallel[i].instances, serial[i].instances) << label;
      EXPECT_EQ(parallel[i].consistency_findings,
                serial[i].consistency_findings)
          << label;
      EXPECT_EQ(parallel[i].lint_findings, serial[i].lint_findings) << label;
      EXPECT_EQ(parallel[i].internet_reaching_instances,
                serial[i].internet_reaching_instances)
          << label;
      EXPECT_EQ(parallel[i].json, serial[i].json) << label;
      EXPECT_EQ(parallel[i].instance_graph_dot, serial[i].instance_graph_dot)
          << label;
    }
  }
}

TEST(ParallelPipeline, SharedPoolAcrossCallsStaysDeterministic) {
  util::ThreadPool pool(8);
  const auto net = archetype_networks(3)[3];  // managed enterprise
  const auto texts = texts_of(net);
  const auto baseline =
      pipeline::network_signature(pipeline::build_network_serial(texts));
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(pipeline::network_signature(
                  pipeline::build_network_parallel(texts, pool)),
              baseline)
        << round;
  }
}

// --- Stress tier (filter with -R Stress / --gtest_filter=Stress.*) ---------

TEST(Stress, RepeatedParallelRunsOverManagedEnterpriseAreStable) {
  synth::ManagedEnterpriseParams params;
  params.seed = 9;
  params.regions = 3;
  params.spokes_per_region = 12;
  params.igp_edge_rate = 0.15;
  params.ebgp_spoke_rate = 0.1;
  const auto net = synth::make_managed_enterprise(params);
  const auto texts = texts_of(net);

  const auto baseline = output_of(
      net.name, pipeline::build_network_serial(texts));
  util::ThreadPool pool(8);
  for (int iteration = 0; iteration < 50; ++iteration) {
    const auto network = pipeline::build_network_parallel(texts, pool);
    ASSERT_EQ(pipeline::network_signature(network), baseline.signature)
        << "nondeterminism at iteration " << iteration;
    // The full analysis report is heavier; spot-check it periodically.
    if (iteration % 10 == 0) {
      ASSERT_EQ(output_of(net.name, network).report, baseline.report)
          << "iteration " << iteration;
    }
  }
}

TEST(Stress, RepeatedParallelFleetRunsAreStable) {
  std::vector<pipeline::FleetInput> inputs;
  for (const auto& net : archetype_networks(21)) {
    inputs.push_back({net.name, texts_of(net)});
  }
  const auto baseline = pipeline::analyze_fleet_serial(inputs);
  util::ThreadPool pool(8);
  for (int iteration = 0; iteration < 50; ++iteration) {
    const auto reports = pipeline::analyze_fleet_parallel(inputs, pool);
    ASSERT_EQ(reports.size(), baseline.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
      ASSERT_EQ(reports[i].json, baseline[i].json)
          << inputs[i].name << " iteration " << iteration;
    }
  }
}

}  // namespace
}  // namespace rd
