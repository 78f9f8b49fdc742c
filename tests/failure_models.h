#pragma once

// The two failure models the what-if tests compare.
//
// The sweep's own: a scenario's failure Problem, restated here from its
// parts (failure_problem).
//
// The former one, kept as the reference for the sweep's structural half:
// rebuild the network from the surviving routers' configurations and close
// the rebuilt network's instances (without_routers, rebuilt_impact). Links
// and sessions to a failed router then lead to no known router, so that
// model treated them as external and injected the external universe
// through them; its reachability figures are wrong, its instance counts
// are not.

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "analysis/propagation.h"
#include "analysis/reachability.h"
#include "analysis/whatif.h"
#include "graph/instances.h"
#include "model/network.h"

namespace rd::test {

/// A scenario's failure Problem and the partition it was discovered over.
struct FailureProblem {
  graph::InstanceSet partition;
  analysis::prop::Problem problem;
};

/// The failure Problem as the sweep builds it: the surviving processes
/// re-closed over the intact adjacencies, discovered with the intact
/// network's external universe, then masked. `failed` must be sorted.
inline FailureProblem failure_problem(
    const model::Network& network, const std::vector<model::RouterId>& failed,
    const analysis::ReachabilityAnalysis::Options& options = {}) {
  FailureProblem out;
  out.partition = graph::compute_instances(network, failed);
  out.problem = analysis::prop::masked(
      analysis::ReachabilityAnalysis::problem(
          network, out.partition, options,
          analysis::prop::external_universe(network,
                                            options.external_prefixes)),
      failed);
  return out;
}

/// The network rebuilt without some routers' configurations: their
/// interfaces, processes, sessions and redistribution points disappear.
inline model::Network without_routers(
    const model::Network& network, const std::vector<model::RouterId>& failed) {
  const std::set<model::RouterId> gone(failed.begin(), failed.end());
  std::vector<config::RouterConfig> configs;
  for (model::RouterId r = 0; r < network.router_count(); ++r) {
    if (!gone.contains(r)) configs.push_back(network.routers()[r]);
  }
  return model::Network::build(std::move(configs));
}

/// The structural impact of `failed` by rebuilding: the rebuilt network's
/// instance count, and the baseline instances whose surviving processes
/// landed in more than one rebuilt instance (a process is matched by its
/// router's surviving index and its stanza).
inline analysis::FailureImpact rebuilt_impact(
    const model::Network& network, const graph::InstanceSet& baseline,
    const std::vector<model::RouterId>& failed) {
  const auto after = without_routers(network, failed);
  const auto instances_after = graph::compute_instances(after);
  const std::set<model::RouterId> gone(failed.begin(), failed.end());
  std::vector<model::RouterId> new_router(network.router_count(),
                                          model::kInvalidId);
  model::RouterId next = 0;
  for (model::RouterId r = 0; r < network.router_count(); ++r) {
    if (!gone.contains(r)) new_router[r] = next++;
  }
  std::map<std::pair<model::RouterId, std::uint32_t>, model::ProcessId>
      new_process;
  for (model::ProcessId p = 0; p < after.processes().size(); ++p) {
    new_process[{after.processes()[p].router,
                 after.processes()[p].stanza_index}] = p;
  }

  analysis::FailureImpact impact;
  impact.instances_before = baseline.instances.size();
  impact.instances_after = instances_after.instances.size();
  for (std::uint32_t i = 0; i < baseline.instances.size(); ++i) {
    std::set<std::uint32_t> landed_in;
    for (const model::ProcessId p : baseline.instances[i].processes) {
      const auto& process = network.processes()[p];
      if (gone.contains(process.router)) continue;
      const auto it =
          new_process.find({new_router[process.router], process.stanza_index});
      if (it != new_process.end()) {
        landed_in.insert(instances_after.instance_of[it->second]);
      }
    }
    if (landed_in.size() > 1) impact.fragmented_instances.push_back(i);
  }
  return impact;
}

}  // namespace rd::test
