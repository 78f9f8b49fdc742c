// Self-grading differential suite for the redistribution-safety rules
// (RD060-RD064): the synthetic fleet must be clean in that rule band, and a
// seeded mutation injector plants one instance of each defect class and
// asserts the analysis flags the planted command — rule id, router, and
// source line all matching the plant record, with the line re-derived by
// emitting and reparsing the mutated configs (the analysis and the test see
// the same provenance).
//
// Stress volume is dialable: RD_FUZZ_SEEDS (default 2) injection seeds per
// defect kind.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/dataflow.h"
#include "analysis/rules.h"
#include "model/network.h"
#include "synth/emit.h"
#include "synth/fleet.h"
#include "synth/mutate.h"
#include "testutil.h"
#include "util/thread_pool.h"

namespace rd::analysis {
namespace {

using rd::test::env_u64;
using rd::test::run_serial;

/// Only the five dataflow rules: the differential grades RD060-RD064, and
/// the full 31-rule engine would spend almost all its time in rules under
/// test elsewhere (symbolic header space on the 500-router backbones).
RuleEngine redistribution_engine() {
  RuleEngine engine;
  engine.add({"RD060", "redistribution-loop", "dataflow", Severity::kError,
              "Differential copy of RD060.", "§6.1"},
             RedistributionSafety::redistribution_loop);
  engine.add({"RD061", "metric-loss-at-boundary", "dataflow",
              Severity::kWarning, "Differential copy of RD061.", "§5.1"},
             RedistributionSafety::metric_loss);
  engine.add({"RD062", "administrative-distance-inversion", "dataflow",
              Severity::kWarning, "Differential copy of RD062.", "§6.1"},
             RedistributionSafety::distance_inversion);
  engine.add({"RD063", "mutual-redistribution-without-filter", "dataflow",
              Severity::kWarning, "Differential copy of RD063.", "§6.1"},
             RedistributionSafety::unfiltered_mutual);
  engine.add({"RD064", "single-point-redistribution", "dataflow",
              Severity::kWarning, "Differential copy of RD064.", "§8.1"},
             RedistributionSafety::single_point);
  return engine;
}

const synth::Fleet& fleet() {
  static const synth::Fleet f = synth::generate_fleet(1);
  return f;
}

std::string describe(const std::vector<Finding>& findings) {
  std::string out;
  for (const auto& f : findings) {
    out += "  " + f.rule_id + " @ " + f.router_name + ":" +
           std::to_string(f.where.line) + " " + f.subject + " — " + f.detail +
           "\n";
  }
  return out;
}

constexpr synth::DefectKind kAllKinds[] = {
    synth::DefectKind::kRedistributionLoop,
    synth::DefectKind::kMetricLoss,
    synth::DefectKind::kDistanceInversion,
    synth::DefectKind::kUnfilteredMutual,
    synth::DefectKind::kSinglePointRedistribution,
};

TEST(MutationDifferential, CleanFleetIsQuietInTheRedistributionBand) {
  const auto engine = redistribution_engine();
  for (const auto& net : fleet().networks) {
    auto copy = net.configs;
    const auto network = model::Network::build(std::move(copy));
    const auto result = run_serial(engine, network);
    EXPECT_TRUE(result.findings.empty())
        << net.name << " (" << net.archetype << "):\n"
        << describe(result.findings);
  }
}

TEST(MutationDifferential, EveryPlantedDefectIsFlaggedWithProvenance) {
  const auto engine = redistribution_engine();
  const auto seeds = env_u64("RD_FUZZ_SEEDS", 2);
  for (const synth::DefectKind kind : kAllKinds) {
    for (std::uint64_t seed = 0; seed < seeds; ++seed) {
      bool planted = false;
      for (const auto& net : fleet().networks) {
        synth::SynthNetwork copy = net;
        const auto plant = synth::inject_defect(copy, kind, seed);
        if (!plant) continue;
        planted = true;
        EXPECT_EQ(plant->rule_id, synth::defect_rule_id(kind));

        // The expected line comes from reparsing the mutated configs — the
        // exact text the analysis consumes.
        const auto reparsed = synth::reparse(copy.configs);
        ASSERT_EQ(reparsed.size(), copy.configs.size());
        ASSERT_LT(plant->router, reparsed.size());
        const auto& cfg = reparsed[plant->router];
        ASSERT_LT(plant->stanza, cfg.router_stanzas.size());
        const auto& stanza = cfg.router_stanzas[plant->stanza];
        ASSERT_LT(plant->redistribute, stanza.redistributes.size());
        const std::size_t expected_line =
            stanza.redistributes[plant->redistribute].line;
        ASSERT_GT(expected_line, 0u);

        const auto network = model::Network::build(reparsed);
        const auto result = run_serial(engine, network);
        bool hit = false;
        for (const auto& f : result.findings) {
          if (f.rule_id == plant->rule_id &&
              f.router == static_cast<model::RouterId>(plant->router) &&
              f.where.line == expected_line &&
              f.detail.find(plant->detail_contains) != std::string::npos) {
            hit = true;
          }
        }
        EXPECT_TRUE(hit)
            << net.name << " (" << net.archetype << "), planted "
            << plant->rule_id << " seed " << seed << " at router "
            << plant->router << " line " << expected_line << "; findings:\n"
            << describe(result.findings);
        // One verified network per (kind, seed) bounds the runtime; the
        // seed dimension varies which network and site get picked.
        break;
      }
      EXPECT_TRUE(planted) << "no fleet network eligible for "
                           << synth::defect_rule_id(kind) << " seed " << seed;
    }
  }
}

TEST(MutationDifferential, PlantedNetworkReportsAreByteIdenticalAcrossThreads) {
  // The full default engine (all 31 rules) on a planted loop network:
  // serial, 1-, 2- and 8-thread runs must serialize identically.
  for (const auto& net : fleet().networks) {
    synth::SynthNetwork copy = net;
    const auto plant = synth::inject_defect(
        copy, synth::DefectKind::kRedistributionLoop, 0);
    if (!plant) continue;
    const auto network = model::Network::build(synth::reparse(copy.configs));
    const auto engine = RuleEngine::with_default_rules();
    const auto serial = run_serial(engine, network);
    bool saw_loop = false;
    for (const auto& f : serial.findings) {
      if (f.rule_id == "RD060") saw_loop = true;
    }
    EXPECT_TRUE(saw_loop);
    const auto serial_json = findings_to_json(engine, serial, net.name);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      util::ThreadPool pool(threads);
      const auto parallel = engine.run(network, pool);
      EXPECT_EQ(findings_to_json(engine, parallel, net.name), serial_json)
          << threads << " threads";
    }
    return;  // one planted network is enough
  }
  FAIL() << "no fleet network eligible for a planted redistribution loop";
}

}  // namespace
}  // namespace rd::analysis
