#pragma once

// The reachability fixpoint's original full-rescan evaluator, kept as the
// differential oracle for `prop::propagate`: std::set storage, interpreting
// policy evaluation (named filters re-resolved in the owning config on
// every call), deep-copied source sets and a global `changed` flag. It
// reads the same `prop::Problem` the product engine evaluates. No product
// path reaches it; reachability_differential_test and perf_reachability's
// BM_Fixpoint_Naive call it.

#include <set>
#include <vector>

#include "analysis/propagation.h"
#include "config/ast.h"
#include "model/policy.h"

namespace rd::analysis::reference {

using model::Route;

/// Interpreting evaluation of one BGP session direction.
inline bool session_permits(const prop::SessionPolicy& policy,
                            bool inbound, const Route& route) {
  if (policy.config == nullptr || policy.neighbor == nullptr) return true;
  const auto& dl = inbound ? policy.neighbor->distribute_list_in
                           : policy.neighbor->distribute_list_out;
  if (dl && !model::distribute_list_permits(*policy.config, *dl, route)) {
    return false;
  }
  const auto& pl_name = inbound ? policy.neighbor->prefix_list_in
                                : policy.neighbor->prefix_list_out;
  if (pl_name) {
    const auto* pl = policy.config->find_prefix_list(*pl_name);
    if (pl != nullptr && !model::prefix_list_permits_route(*pl, route)) {
      return false;
    }
  }
  const auto& rm_name = inbound ? policy.neighbor->route_map_in
                                : policy.neighbor->route_map_out;
  if (rm_name) {
    const auto* rm = policy.config->find_route_map(*rm_name);
    if (rm != nullptr &&
        !model::route_map_evaluate(*rm, *policy.config, route).permitted) {
      return false;
    }
  }
  return true;
}

/// Stanza-level distribute-lists (IGP): apply all matching direction.
inline bool stanza_permits(const config::RouterConfig& config,
                           const config::RouterStanza& stanza, bool inbound,
                           const Route& route) {
  for (const auto& dl : stanza.distribute_lists) {
    if (dl.inbound != inbound) continue;
    if (!model::distribute_list_permits(config, dl.acl, route)) return false;
  }
  return true;
}

/// The fixpoint of `problem` by full rescans until nothing changes.
inline prop::FixpointResult run_naive(const prop::Problem& problem) {
  prop::FixpointResult result;
  std::vector<std::set<Route>> sets(problem.instance_count);
  auto add_route = [&](std::uint32_t instance, const Route& route) {
    return sets[instance].insert(route).second;
  };
  for (const auto& seed : problem.seeds) {
    add_route(seed.instance, seed.route);
  }

  bool changed = true;
  while (changed && result.iterations < problem.max_iterations) {
    changed = false;
    ++result.iterations;

    // Aggregation (suppression of more-specifics is not modeled — the
    // analysis stays an upper bound on reachability).
    for (const auto& point : problem.aggregate_points) {
      bool contained = false;
      for (const auto& route : sets[point.instance]) {
        if (route.prefix != point.prefix &&
            point.prefix.contains(route.prefix)) {
          contained = true;
          break;
        }
      }
      if (contained &&
          add_route(point.instance, {point.prefix, std::nullopt})) {
        changed = true;
      }
    }

    // External world -> instances.
    for (const auto& endpoint : problem.external_endpoints) {
      for (const Route& route : problem.universe) {
        if (!session_permits(endpoint.policy, /*inbound=*/true, route)) {
          continue;
        }
        if (add_route(endpoint.instance, route)) changed = true;
      }
    }
    for (const auto& endpoint : problem.external_igp_endpoints) {
      for (const Route& route : problem.universe) {
        if (!stanza_permits(*endpoint.config, *endpoint.stanza,
                            /*inbound=*/true, route)) {
          continue;
        }
        if (add_route(endpoint.instance, route)) changed = true;
      }
    }

    // Internal EBGP flows.
    for (const auto& flow : problem.flows) {
      // Copy: the source set may grow while we insert into the target.
      const std::set<Route> source = sets[flow.from_instance];
      for (const Route& route : source) {
        if (!session_permits(flow.sender_out, /*inbound=*/false, route)) {
          continue;
        }
        if (!session_permits(flow.receiver_in, /*inbound=*/true, route)) {
          continue;
        }
        if (add_route(flow.to_instance, route)) changed = true;
      }
    }

    // Redistribution between instances.
    for (const auto& edge : problem.redist_edges) {
      const std::set<Route> source = sets[edge.from_instance];
      for (const Route& route : source) {
        Route forwarded = route;
        if (*edge.route_map) {
          const auto* rm = edge.config->find_route_map(**edge.route_map);
          if (rm != nullptr) {
            const auto verdict =
                model::route_map_evaluate(*rm, *edge.config, route);
            if (!verdict.permitted) continue;
            forwarded = verdict.route;
          }
        }
        if (!stanza_permits(*edge.config, *edge.stanza, /*inbound=*/false,
                            forwarded)) {
          continue;
        }
        if (add_route(edge.to_instance, forwarded)) changed = true;
      }
    }
  }
  result.converged = !changed;

  // --- What the network announces to the world.
  std::set<Route> announced;
  for (const auto& endpoint : problem.external_endpoints) {
    for (const Route& route : sets[endpoint.instance]) {
      if (session_permits(endpoint.policy, /*inbound=*/false, route)) {
        announced.insert(route);
      }
    }
  }
  for (const auto& endpoint : problem.external_igp_endpoints) {
    for (const Route& route : sets[endpoint.instance]) {
      if (stanza_permits(*endpoint.config, *endpoint.stanza,
                         /*inbound=*/false, route)) {
        announced.insert(route);
      }
    }
  }
  result.announced.assign(announced.begin(), announced.end());
  result.routes.resize(problem.instance_count);
  for (std::size_t i = 0; i < problem.instance_count; ++i) {
    result.routes[i].assign(sets[i].begin(), sets[i].end());
  }
  return result;
}

}  // namespace rd::analysis::reference
