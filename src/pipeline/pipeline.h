#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "model/network.h"
#include "util/thread_pool.h"

namespace rd::pipeline {

// --- Per-network pipeline (parse -> model) ----------------------------------
//
// The paper's front end (§2) parses each router's configuration file
// independently; only the model-build step (link inference onward) looks
// across routers. That makes the parse embarrassingly parallel. The
// determinism contract: configs are assembled in input index order before
// `model::Network::build` runs, so the cached, parallel build
// (pipeline::build_network_cached, series.h) yields a Network
// byte-identical (same ids, same vector orders, same serializations) to
// the serial path's.

/// Serial path: parse texts[0..n) in order, build the model. The fleet
/// task's build (each task already holds one pool thread), and the uncached
/// reference build_network_cached is tested against.
model::Network build_network_serial(const std::vector<std::string>& texts);

/// Canonical JSON serialization of everything the model derived: routers,
/// interfaces, links, routing processes, IGP adjacencies, BGP sessions, and
/// redistribution edges, all in id order. Two Networks with equal signatures
/// are indistinguishable to every downstream analysis; the differential
/// tests compare serial and parallel pipelines through this.
std::string network_signature(const model::Network& network);

// --- Fleet analysis ---------------------------------------------------------
//
// The paper applies its pipeline to 31 independent networks; the analyses
// (census, design classification, consistency, lint, reachability) never
// look across networks, so the fleet fans out one task per network and the
// reports merge in input index order.

/// One network's input: a name and its per-router configuration texts.
struct FleetInput {
  std::string name;
  std::vector<std::string> texts;
};

/// One network's analysis report. `json` is the full deterministic report
/// (inventory, interface census, design classification, consistency and
/// lint findings, reachability summary); `instance_graph_dot` is the
/// Figure-6-style DOT rendering. The scalar fields are convenience copies
/// for table printing.
struct NetworkReport {
  std::string name;
  std::string archetype;
  std::size_t routers = 0;
  std::size_t links = 0;
  std::size_t instances = 0;
  std::size_t consistency_findings = 0;
  std::size_t lint_findings = 0;
  /// All design-rule findings (suppressions applied) and the subset with
  /// error severity — the CLI exit-code gate.
  std::size_t rule_findings = 0;
  std::size_t rule_errors = 0;
  std::size_t parse_diagnostics = 0;
  std::size_t internet_reaching_instances = 0;
  std::string json;
  std::string instance_graph_dot;
};

/// Run the per-network §8.1-style passes over an already-built model.
NetworkReport analyze_network(const std::string& name,
                              const model::Network& network);

/// Fleet analysis: one task per network (parse + build + analyze), reports
/// merged in input index order, so the result is element-for-element
/// identical at every pool size; a one-thread pool is the serial loop.
std::vector<NetworkReport> analyze_fleet_parallel(
    const std::vector<FleetInput>& inputs, util::ThreadPool& pool);

}  // namespace rd::pipeline
