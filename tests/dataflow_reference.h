#pragma once

// The instance dataflow's original engine, kept as the differential oracle
// for `analysis::InstanceDataflow`: one semi-naïve loop over every origin
// at once, facts `(origin, exit_router, route)` held in per-instance
// append-only logs with hash-set membership, per-edge cursors into the
// source log, and each crossing's policy chain compiled once up front.
// Edges fire in index order and facts in log order, and the first loop
// event per (edge, origin) and the first entry per (origin, instance) in
// that traversal are the ones kept. No product path reaches it.

#include <cstddef>
#include <cstdint>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/dataflow.h"
#include "analysis/propagation.h"
#include "graph/instances.h"
#include "model/network.h"
#include "model/policy.h"

namespace rd::analysis::reference {

/// One abstract fact: a route plus its provenance. `exit_router` is
/// kInvalidId while the fact still sits in its originating instance and is
/// stamped with the border router the first time the fact crosses out —
/// after that it never changes, so a fact arriving back at its origin knows
/// whether it traveled a real multi-router cycle or just bounced inside one
/// box (where the router's own RIB already breaks the loop).
struct RouteFact {
  std::uint32_t origin = 0;  // instance index the route was originated in
  model::RouterId exit_router = model::kInvalidId;
  model::Route route;

  friend bool operator==(const RouteFact&, const RouteFact&) = default;
};

struct FactHash {
  std::size_t operator()(const RouteFact& fact) const noexcept {
    std::uint64_t h = model::RouteHash{}(fact.route);
    h = h * 0x9e3779b97f4a7c15ULL + fact.origin;
    h = h * 0x9e3779b97f4a7c15ULL + fact.exit_router;
    h ^= h >> 32;
    return static_cast<std::size_t>(h);
  }
};

/// What the engine computed: the same edges, loop events and entries
/// `InstanceDataflow` exposes, in the reference's traversal order.
struct Dataflow {
  std::vector<DataflowEdge> edges;
  std::vector<LoopEvent> loop_events;
  std::vector<EntryRecord> entries;
  std::size_t total_facts = 0;
  std::size_t iterations = 0;
  bool converged = true;
};

inline Dataflow run(const model::Network& network,
                    const graph::InstanceGraph& graph) {
  Dataflow out;
  // The loop below is the engine's constructor body, unchanged; these
  // bind the members it filled to the result.
  auto& edges_ = out.edges;
  auto& loop_events_ = out.loop_events;
  auto& entries_ = out.entries;
  auto& total_facts_ = out.total_facts;
  auto& iterations_ = out.iterations;
  auto& converged_ = out.converged;
  using model::Route;

  const auto& set = graph.set;
  const std::size_t n = set.instances.size();
  // The propagation rules' own discovery: the same seeds, edges and policy
  // context the reachability fixpoint and the simulator evaluate.
  const prop::Problem problem = prop::discover(network, set, {}, {});
  model::PolicyCompiler compiler;

  // --- Edges: cross-instance redistribution commands, then internal EBGP
  // sessions (one per direction: remote -> local), each in model order and
  // each with its policy chain compiled once.
  struct Chain {
    const model::CompiledRouteMap* route_map = nullptr;  // null: pass-through
    prop::CompiledStanzaDir outbound;      // kRedistribution: target stanza
    prop::CompiledSessionDir sender_out;   // kSession
    prop::CompiledSessionDir receiver_in;  // kSession
  };
  std::vector<Chain> chains;
  for (const auto& redist : problem.redist_edges) {
    edges_.push_back({DataflowEdge::Kind::kRedistribution, redist.from_instance,
                      redist.to_instance, redist.router, redist.router,
                      redist.line});
    Chain chain;
    if (*redist.route_map) {
      chain.route_map = compiler.route_map(*redist.config, **redist.route_map);
    }
    chain.outbound = prop::compile_stanza_dir(compiler, *redist.config,
                                              *redist.stanza, false);
    chains.push_back(std::move(chain));
  }
  for (const auto& flow : problem.flows) {
    edges_.push_back({DataflowEdge::Kind::kSession, flow.from_instance,
                      flow.to_instance, flow.to_router, flow.from_router,
                      flow.receiver_in.neighbor->line});
    Chain chain;
    chain.sender_out = prop::compile_session_dir(compiler, flow.sender_out,
                                                 false);
    chain.receiver_in = prop::compile_session_dir(compiler, flow.receiver_in,
                                                  true);
    chains.push_back(std::move(chain));
  }

  // --- Seeds: the Problem's origination and local-RIB seeds, then BGP
  // aggregates as unconditional origination (the abstract domain does not
  // track the contained-more-specific trigger the concrete engine models —
  // over-approximating keeps the rules sound for loop detection).
  std::vector<std::vector<RouteFact>> logs(n);
  std::vector<std::unordered_set<RouteFact, FactHash>> present(n);
  auto add_fact = [&](std::uint32_t inst, const RouteFact& fact) {
    if (!present[inst].insert(fact).second) return false;
    logs[inst].push_back(fact);
    ++total_facts_;
    return true;
  };
  for (const auto& seed : problem.seeds) {
    add_fact(seed.instance, {seed.instance, model::kInvalidId, seed.route});
  }
  for (const auto& point : problem.aggregate_points) {
    add_fact(point.instance, {point.instance, model::kInvalidId,
                              {point.prefix, std::nullopt}});
  }

  // --- Semi-naïve fixpoint: per-edge cursors into the source instance's
  // append-only log; edges fire in index order, so entry records and loop
  // events come out in a deterministic order.
  std::vector<std::size_t> cursor(edges_.size(), 0);
  std::set<std::pair<std::size_t, std::uint32_t>> loops_seen;
  std::set<std::pair<std::uint32_t, std::uint32_t>> entries_seen;
  constexpr std::size_t kMaxRounds = 256;
  bool changed = true;
  while (changed) {
    if (iterations_ == kMaxRounds) {
      converged_ = false;
      break;
    }
    ++iterations_;
    changed = false;
    for (std::size_t ei = 0; ei < edges_.size(); ++ei) {
      const DataflowEdge& edge = edges_[ei];
      const Chain& chain = chains[ei];
      // Edges never target their own source, so the source log is stable
      // while this edge drains it.
      const std::size_t end = logs[edge.from].size();
      for (std::size_t fi = cursor[ei]; fi < end; ++fi) {
        const RouteFact fact = logs[edge.from][fi];
        if (edge.kind == DataflowEdge::Kind::kSession) {
          // AS-path loop prevention: BGP never re-learns its own routes.
          if (fact.origin == edge.to) continue;
          if (!chain.sender_out.permits(fact.route)) continue;
          if (!chain.receiver_in.permits(fact.route)) continue;
          RouteFact next = fact;
          if (next.exit_router == model::kInvalidId) {
            next.exit_router = edge.exit_router;
          }
          if (add_fact(edge.to, next)) changed = true;
          continue;
        }
        // Redistribution: route-map (unresolved names pass through, as in
        // IOS), then the target stanza's outbound distribute-lists.
        Route route = fact.route;
        if (chain.route_map != nullptr) {
          const auto& verdict = chain.route_map->evaluate(route);
          if (!verdict.permitted) continue;
          route = verdict.route;
        }
        if (!chain.outbound.permits(route)) continue;
        if (fact.origin == edge.to) {
          // The instance's own route coming home. A same-router bounce is
          // broken by that router's RIB (it prefers what it already has);
          // a multi-router cycle is live only when the carried copy's
          // distance beats the native route on the shared routers.
          if (fact.exit_router != model::kInvalidId &&
              fact.exit_router != edge.router &&
              distance_external(set.instances[edge.from].protocol) <
                  distance_internal(set.instances[fact.origin].protocol)) {
            if (loops_seen.emplace(ei, fact.origin).second) {
              loop_events_.push_back({ei, fact.origin, fact.exit_router,
                                      route});
            }
          }
          continue;  // never re-inject: keeps the fact domain finite
        }
        if (entries_seen.emplace(fact.origin, edge.to).second) {
          entries_.push_back({fact.origin, edge.to, ei});
        }
        RouteFact next{fact.origin,
                       fact.exit_router == model::kInvalidId
                           ? edge.router
                           : fact.exit_router,
                       route};
        if (add_fact(edge.to, next)) changed = true;
      }
      cursor[ei] = end;
    }
  }
  return out;
}

}  // namespace rd::analysis::reference
