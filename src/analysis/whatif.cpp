#include "analysis/whatif.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "analysis/vulnerability.h"
#include "obs/obs.h"

namespace rd::analysis {

namespace {

/// The structural impact of `failed` (sorted ascending), read off `after`:
/// the re-closure `graph::compute_instances(network, failed)`, over the
/// same process ids as `baseline`. Each failed process is an instance of
/// its own there and is not counted.
FailureImpact structural_impact(const model::Network& network,
                                const graph::InstanceSet& baseline,
                                const std::vector<model::RouterId>& failed,
                                const graph::InstanceSet& after) {
  auto down = [&](model::ProcessId p) {
    return std::binary_search(failed.begin(), failed.end(),
                              network.processes()[p].router);
  };
  FailureImpact impact;
  impact.instances_before = baseline.instances.size();
  impact.instances_after = after.instances.size();
  for (model::ProcessId p = 0; p < network.processes().size(); ++p) {
    if (down(p)) --impact.instances_after;
  }
  for (std::uint32_t i = 0; i < baseline.instances.size(); ++i) {
    std::optional<std::uint32_t> landed_in;
    for (const model::ProcessId p : baseline.instances[i].processes) {
      if (down(p)) continue;
      if (!landed_in) {
        landed_in = after.instance_of[p];
      } else if (*landed_in != after.instance_of[p]) {
        impact.fragmented_instances.push_back(i);
        break;
      }
    }
  }
  return impact;
}

/// Iterative articulation-point computation (Hopcroft-Tarjan low-link) on
/// one instance's router-level adjacency graph.
std::vector<model::RouterId> articulation_points(
    const std::vector<std::vector<std::uint32_t>>& adjacency) {
  const std::size_t n = adjacency.size();
  std::vector<std::int32_t> depth(n, -1);
  std::vector<std::uint32_t> low(n, 0);
  std::vector<std::int32_t> parent(n, -1);
  std::vector<bool> is_cut(n, false);

  struct Frame {
    std::uint32_t node;
    std::size_t next_child;
  };
  for (std::uint32_t root = 0; root < n; ++root) {
    if (depth[root] != -1) continue;
    std::vector<Frame> stack{{root, 0}};
    depth[root] = 0;
    low[root] = 0;
    std::size_t root_children = 0;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const std::uint32_t u = frame.node;
      if (frame.next_child < adjacency[u].size()) {
        const std::uint32_t v = adjacency[u][frame.next_child++];
        if (depth[v] == -1) {
          depth[v] = depth[u] + 1;
          low[v] = static_cast<std::uint32_t>(depth[v]);
          parent[v] = static_cast<std::int32_t>(u);
          if (u == root) ++root_children;
          stack.push_back({v, 0});
        } else if (static_cast<std::int32_t>(v) != parent[u]) {
          low[u] = std::min(low[u], static_cast<std::uint32_t>(depth[v]));
        }
      } else {
        stack.pop_back();
        if (!stack.empty()) {
          const std::uint32_t p = stack.back().node;
          low[p] = std::min(low[p], low[u]);
          if (p != root && low[u] >= static_cast<std::uint32_t>(depth[p])) {
            is_cut[p] = true;
          }
        }
      }
    }
    if (root_children > 1) is_cut[root] = true;
  }

  std::vector<model::RouterId> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (is_cut[i]) out.push_back(i);
  }
  return out;
}

}  // namespace

std::vector<ArticulationRouter> instance_articulation_routers(
    const model::Network& network, const graph::InstanceSet& instances) {
  std::vector<ArticulationRouter> out;

  // Router-level edges inside each instance: IGP adjacencies and IBGP
  // sessions between processes of the instance.
  for (std::uint32_t i = 0; i < instances.instances.size(); ++i) {
    const auto& instance = instances.instances[i];
    if (instance.routers.size() < 3) continue;  // nothing to articulate
    // Local indices.
    std::map<model::RouterId, std::uint32_t> local;
    for (const model::RouterId r : instance.routers) {
      local.emplace(r, static_cast<std::uint32_t>(local.size()));
    }
    std::vector<std::vector<std::uint32_t>> adjacency(local.size());
    auto add_edge = [&](model::RouterId a, model::RouterId b) {
      if (a == b) return;
      const auto ia = local.find(a);
      const auto ib = local.find(b);
      if (ia == local.end() || ib == local.end()) return;
      adjacency[ia->second].push_back(ib->second);
      adjacency[ib->second].push_back(ia->second);
    };
    for (const auto& adj : network.igp_adjacencies()) {
      if (instances.instance_of[adj.process_a] == i) {
        add_edge(network.processes()[adj.process_a].router,
                 network.processes()[adj.process_b].router);
      }
    }
    for (const auto& session : network.bgp_sessions()) {
      if (session.external() || session.ebgp()) continue;
      if (instances.instance_of[session.local_process] == i) {
        add_edge(network.processes()[session.local_process].router,
                 network.processes()[session.remote_process].router);
      }
    }
    for (const model::RouterId r : articulation_points(adjacency)) {
      out.push_back({instance.routers[r], i});
    }
  }
  return out;
}

std::vector<model::RouterId> sole_redistribution_routers(
    const model::Network& network, const graph::InstanceGraph& graph) {
  std::set<model::RouterId> routers;
  for (const auto& entry : redistribution_redundancy(network, graph)) {
    if (entry.single_point_of_failure()) {
      routers.insert(entry.connecting_routers.front());
    }
  }
  return {routers.begin(), routers.end()};
}

std::vector<FailureScenario> single_failure_scenarios(
    const model::Network& network, const graph::InstanceGraph& graph) {
  std::set<model::RouterId> candidates;
  for (const auto& art :
       instance_articulation_routers(network, graph.set)) {
    candidates.insert(art.router);
  }
  for (const model::RouterId r :
       sole_redistribution_routers(network, graph)) {
    candidates.insert(r);
  }
  std::vector<FailureScenario> scenarios;
  scenarios.reserve(candidates.size());
  for (const model::RouterId r : candidates) {
    scenarios.push_back({network.routers()[r].hostname, {r}});
  }
  return scenarios;
}

std::vector<ScenarioImpact> sweep_failure_scenarios(
    const model::Network& network, const graph::InstanceSet& baseline,
    const std::vector<FailureScenario>& scenarios,
    const ReachabilityAnalysis::Options& reach_options,
    util::ThreadPool& pool) {
  // Each scenario is an independent fixpoint on its own failure Problem,
  // whose partition the structural half reads too; parallel_map puts result
  // i in slot i, so the sweep's output is identical at any thread count.
  // The fixpoint is only counted, never materialized into route vectors:
  // the impact reads four figures of it.
  obs::counter("sweep.scenarios").add(scenarios.size());
  const auto universe =
      prop::external_universe(network, reach_options.external_prefixes);
  return util::parallel_map(pool, scenarios, [&](const FailureScenario& s) {
    obs::Span span("sweep.scenario", "reachability");
    span.label(s.name);
    ScenarioImpact impact;
    impact.scenario = s;
    auto failed = s.failed;  // the re-closure and the mask need them sorted
    std::sort(failed.begin(), failed.end());
    const auto problem = [&] {
      obs::Span step("sweep.failure_problem", "reachability");
      const auto partition = graph::compute_instances(network, failed);
      impact.structural =
          structural_impact(network, baseline, failed, partition);
      return prop::masked(ReachabilityAnalysis::problem(
                              network, partition, reach_options, universe),
                          failed);
    }();
    const auto reach = ReachabilityAnalysis::summarize(problem);
    impact.instances_reaching_internet = reach.instances_reaching_internet;
    impact.total_routes = reach.total_routes;
    impact.announced_externally = reach.announced;
    impact.reachability_converged = reach.converged;
    return impact;
  });
}

}  // namespace rd::analysis
