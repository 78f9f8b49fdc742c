// Regression suite for the headline bugfix: the lenient parser's
// diagnostics (malformed or unrecognized lines it skipped) used to be
// dropped at the model boundary — build_network_* kept only the configs, so
// fleet reports silently presented partial models as clean. These tests pin
// the diagnostics' full journey: parser -> Network -> signature -> report
// JSON, identical on the serial, parallel, and cached paths.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "config/parser.h"
#include "model/network.h"
#include "pipeline/parse_cache.h"
#include "pipeline/pipeline.h"
#include "pipeline/series.h"
#include "util/thread_pool.h"

namespace rd {
namespace {

// An orphan sub-mode line: " shutdown" indented under nothing. The parser
// skips it with a diagnostic instead of failing.
const char* kOrphanSubModeConfig =
    "hostname crooked\n"
    " shutdown\n"
    "interface Ethernet0\n"
    " ip address 10.1.0.1 255.255.255.0\n";

const char* kCleanConfig =
    "hostname tidy\n"
    "interface Ethernet0\n"
    " ip address 10.1.0.2 255.255.255.0\n";

TEST(ParseDiagnostics, ParserReportsOrphanSubModeLine) {
  const auto result = config::parse_config(kOrphanSubModeConfig);
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].message,
            "sub-mode command outside any block");
  EXPECT_EQ(result.diagnostics[0].line, 2u);
}

TEST(ParseDiagnostics, NetworkBuiltFromParsesKeepsPerRouterDiagnostics) {
  const auto network =
      pipeline::build_network_serial({kOrphanSubModeConfig, kCleanConfig});
  ASSERT_EQ(network.router_count(), 2u);
  ASSERT_EQ(network.parse_diagnostics().size(), 2u);
  ASSERT_EQ(network.parse_diagnostics(0).size(), 1u);
  EXPECT_EQ(network.parse_diagnostics(0)[0].message,
            "sub-mode command outside any block");
  EXPECT_TRUE(network.parse_diagnostics(1).empty());
  EXPECT_EQ(network.total_parse_diagnostics(), 1u);
}

TEST(ParseDiagnostics, InMemoryBuildCarriesNoDiagnostics) {
  auto parsed = config::parse_config(kOrphanSubModeConfig);
  const auto network = model::Network::build({std::move(parsed.config)});
  ASSERT_EQ(network.parse_diagnostics().size(), 1u);
  EXPECT_TRUE(network.parse_diagnostics(0).empty());
  EXPECT_EQ(network.total_parse_diagnostics(), 0u);
}

TEST(ParseDiagnostics, ReportJsonSurfacesCountsAndMessages) {
  const auto network =
      pipeline::build_network_serial({kOrphanSubModeConfig, kCleanConfig});
  const auto report = pipeline::analyze_network("diag-net", network);

  EXPECT_EQ(report.parse_diagnostics, 1u);
  EXPECT_NE(report.json.find("\"parse_diagnostics\""), std::string::npos);
  EXPECT_NE(report.json.find("sub-mode command outside any block"),
            std::string::npos);
  EXPECT_NE(report.json.find("\"crooked\""), std::string::npos);
  // The clean router contributes no per-router diagnostics entry.
  const auto diags_pos = report.json.find("\"parse_diagnostics\"");
  const auto census_pos = report.json.find("\"census\"");
  ASSERT_NE(census_pos, std::string::npos);
  EXPECT_EQ(report.json.substr(diags_pos, census_pos - diags_pos)
                .find("\"tidy\""),
            std::string::npos);
}

TEST(ParseDiagnostics, SignatureIncludesDiagnosticsSoDifferentialSeesThem) {
  const auto with = pipeline::network_signature(
      pipeline::build_network_serial({kOrphanSubModeConfig}));
  // Same modeled config, but the malformed line removed: the models are
  // equal, the diagnostics are not — the signature must distinguish them.
  const auto without = pipeline::network_signature(
      pipeline::build_network_serial({"hostname crooked\n"
                                      "interface Ethernet0\n"
                                      " ip address 10.1.0.1 255.255.255.0\n"}));
  EXPECT_NE(with, without);
  EXPECT_NE(with.find("sub-mode command outside any block"),
            std::string::npos);
}

TEST(ParseDiagnostics, SerialParallelAndCachedPathsAgree) {
  std::vector<std::string> texts = {kOrphanSubModeConfig, kCleanConfig,
                                    "hostname third\n"
                                    "bogus-command here\n"
                                    "interface Serial0\n"
                                    " ip address 10.2.0.1 255.255.255.252\n"};
  const auto serial = pipeline::build_network_serial(texts);
  const auto reference = pipeline::network_signature(serial);
  EXPECT_EQ(serial.total_parse_diagnostics(), 2u);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    pipeline::ParseCache fresh;
    EXPECT_EQ(pipeline::network_signature(
                  pipeline::build_network_cached(texts, {}, fresh, pool)),
              reference)
        << "parallel threads " << threads;

    pipeline::ParseCache cache;
    for (int round = 0; round < 2; ++round) {
      EXPECT_EQ(pipeline::network_signature(
                    pipeline::build_network_cached(texts, {}, cache, pool)),
                reference)
          << "cached threads " << threads << " round " << round;
    }
  }
}

TEST(ParseDiagnostics, FleetReportCountsDiagnostics) {
  std::vector<pipeline::FleetInput> inputs;
  inputs.push_back({"dirty", {kOrphanSubModeConfig, kCleanConfig}});
  inputs.push_back({"clean", {kCleanConfig}});
  util::ThreadPool one(1);
  const auto reports = pipeline::analyze_fleet_parallel(inputs, one);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].parse_diagnostics, 1u);
  EXPECT_EQ(reports[1].parse_diagnostics, 0u);

  util::ThreadPool pool(8);
  const auto parallel = pipeline::analyze_fleet_parallel(inputs, pool);
  ASSERT_EQ(parallel.size(), 2u);
  EXPECT_EQ(parallel[0].parse_diagnostics, 1u);
  EXPECT_EQ(parallel[0].json, reports[0].json);
  EXPECT_EQ(parallel[1].json, reports[1].json);
}

}  // namespace
}  // namespace rd
