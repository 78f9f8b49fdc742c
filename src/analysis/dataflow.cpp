#include "analysis/dataflow.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>

#include "analysis/propagation.h"
#include "analysis/vulnerability.h"
#include "obs/obs.h"

namespace rd::analysis {

std::uint8_t distance_internal(config::RoutingProtocol protocol) noexcept {
  using config::RoutingProtocol;
  switch (protocol) {
    case RoutingProtocol::kEigrp: return 90;
    case RoutingProtocol::kIgrp: return 100;
    case RoutingProtocol::kOspf: return 110;
    case RoutingProtocol::kIsis: return 115;
    case RoutingProtocol::kRip: return 120;
    case RoutingProtocol::kBgp: return 200;  // IBGP
  }
  return 255;
}

std::uint8_t distance_external(config::RoutingProtocol protocol) noexcept {
  using config::RoutingProtocol;
  switch (protocol) {
    case RoutingProtocol::kEigrp: return 170;
    case RoutingProtocol::kIgrp: return 100;
    case RoutingProtocol::kOspf: return 110;  // OSPF external
    case RoutingProtocol::kIsis: return 115;
    case RoutingProtocol::kRip: return 120;
    case RoutingProtocol::kBgp: return 200;  // redistributed into BGP
  }
  return 255;
}

MetricClass metric_class(config::RoutingProtocol protocol) noexcept {
  using config::RoutingProtocol;
  switch (protocol) {
    case RoutingProtocol::kRip: return MetricClass::kHopCount;
    case RoutingProtocol::kOspf:
    case RoutingProtocol::kIsis: return MetricClass::kCost;
    case RoutingProtocol::kEigrp:
    case RoutingProtocol::kIgrp: return MetricClass::kComposite;
    case RoutingProtocol::kBgp: return MetricClass::kPath;
  }
  return MetricClass::kCost;
}

std::string_view metric_class_name(MetricClass cls) noexcept {
  switch (cls) {
    case MetricClass::kHopCount: return "hop-count";
    case MetricClass::kCost: return "cost";
    case MetricClass::kComposite: return "composite";
    case MetricClass::kPath: return "path-attribute";
  }
  return "cost";
}

std::string instance_label(const graph::InstanceSet& set, std::uint32_t i) {
  const auto& inst = set.instances[i];
  std::string label = "instance ";
  label += std::to_string(i + 1);
  label += " (";
  label += config::to_keyword(inst.protocol);
  if (inst.bgp_as) {
    label += " as ";
    label += std::to_string(*inst.bgp_as);
  }
  label += ')';
  return label;
}

std::size_t redistribute_line(const model::Network& network,
                              const model::RedistributionEdge& edge) {
  const auto& process = network.processes()[edge.target_process];
  const auto& stanza =
      network.routers()[edge.router].router_stanzas[process.stanza_index];
  return stanza.redistributes[edge.redistribute_index].line;
}

namespace {

using model::Route;

struct FactHash {
  std::size_t operator()(const RouteFact& fact) const noexcept {
    std::uint64_t h = model::RouteHash{}(fact.route);
    h = h * 0x9e3779b97f4a7c15ULL + fact.origin;
    h = h * 0x9e3779b97f4a7c15ULL + fact.exit_router;
    h ^= h >> 32;
    return static_cast<std::size_t>(h);
  }
};

Finding make_finding(model::RouterId router, std::string subject,
                     std::string detail, std::size_t line,
                     model::RouterId router_b = model::kInvalidId) {
  Finding f;
  f.router = router;
  f.router_b = router_b;
  f.subject = std::move(subject);
  f.detail = std::move(detail);
  f.where.line = line;
  return f;
}

std::string router_name(const model::Network& network, model::RouterId r) {
  return r == model::kInvalidId ? std::string("?")
                                : network.routers()[r].hostname;
}

}  // namespace

InstanceDataflow::InstanceDataflow(const model::Network& network,
                                   const graph::InstanceGraph& graph) {
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

  obs::counter("dataflow.runs").add();
  obs::counter("dataflow.facts").add(total_facts_);
  obs::counter("dataflow.iterations").add(iterations_);
  obs::counter("dataflow.loop_events").add(loop_events_.size());
}

// --- RD060: redistribution loop ---------------------------------------------

std::vector<Finding> RedistributionSafety::redistribution_loop(
    const Context& ctx) {
  std::vector<Finding> out;
  const InstanceDataflow& flow = ctx.dataflow();
  const auto& set = ctx.graph.set;
  for (const LoopEvent& event : flow.loop_events()) {
    const DataflowEdge& edge = flow.edges()[event.edge];
    std::string detail = "routes of ";
    detail += instance_label(set, event.origin);
    detail += " leave via ";
    detail += router_name(ctx.network, event.exit_router);
    detail += ", transit ";
    detail += instance_label(set, edge.from);
    detail += ", and this command re-injects them into their origin (e.g. ";
    detail += event.witness.prefix.to_string();
    detail += "); the re-injected copy (distance ";
    detail += std::to_string(
        distance_external(set.instances[edge.from].protocol));
    detail += ") beats the native route (distance ";
    detail += std::to_string(
        distance_internal(set.instances[event.origin].protocol));
    detail += ") and no tag or prefix filter breaks the cycle";
    out.push_back(make_finding(edge.router,
                               instance_label(set, event.origin),
                               std::move(detail), edge.line,
                               event.exit_router));
  }
  return out;
}

// --- RD061: metric loss at a boundary ---------------------------------------

std::vector<Finding> RedistributionSafety::metric_loss(const Context& ctx) {
  std::vector<Finding> out;
  const auto& set = ctx.graph.set;
  const auto& network = ctx.network;
  for (const auto& redist : network.redistribution_edges()) {
    if (redist.source_kind != model::RibKind::kProcess) continue;
    const std::uint32_t from = set.instance_of[redist.source_process];
    const std::uint32_t to = set.instance_of[redist.target_process];
    if (from == to) continue;
    const auto source_proto = set.instances[from].protocol;
    const auto target_proto = set.instances[to].protocol;
    // BGP assigns path attributes on injection; only protocol-to-protocol
    // boundaries with incompatible metric algebras can lose the metric.
    if (target_proto == config::RoutingProtocol::kBgp) continue;
    if (metric_class(source_proto) == metric_class(target_proto)) continue;
    const auto& config = network.routers()[redist.router];
    const auto& target = network.processes()[redist.target_process];
    const auto& stanza = config.router_stanzas[target.stanza_index];
    const auto& command = stanza.redistributes[redist.redistribute_index];
    if (command.metric) continue;
    if (stanza.default_metric) continue;
    if (command.route_map) {
      const auto facts = model::route_map_facts(config, *command.route_map);
      if (facts.resolved && facts.sets_metric) continue;
    }
    std::string subject = instance_label(set, from);
    subject += " -> ";
    subject += instance_label(set, to);
    std::string detail = "redistribution from ";
    detail += config::to_keyword(source_proto);
    detail += " (";
    detail += metric_class_name(metric_class(source_proto));
    detail += " metric) into ";
    detail += config::to_keyword(target_proto);
    detail += " (";
    detail += metric_class_name(metric_class(target_proto));
    detail +=
        " metric) carries no metric mapping: no metric on the command, no "
        "default-metric on the process, no set metric in the route-map";
    out.push_back(make_finding(redist.router, std::move(subject),
                               std::move(detail), command.line));
  }
  return out;
}

// --- RD062: administrative-distance inversion --------------------------------

std::vector<Finding> RedistributionSafety::distance_inversion(
    const Context& ctx) {
  std::vector<Finding> out;
  const InstanceDataflow& flow = ctx.dataflow();
  const auto& set = ctx.graph.set;
  for (const EntryRecord& entry : flow.entries()) {
    const auto origin_proto = set.instances[entry.origin].protocol;
    const auto carrier_proto = set.instances[entry.instance].protocol;
    if (distance_external(carrier_proto) >= distance_internal(origin_proto)) {
      continue;
    }
    const DataflowEdge& edge = flow.edges()[entry.edge];
    // The inversion bites on a router that hears both the native route
    // (inside the origin instance) and the redistributed copy (inside the
    // carrier) — any shared router other than the redistribution point.
    std::vector<model::RouterId> origin_routers =
        set.instances[entry.origin].routers;
    std::vector<model::RouterId> carrier_routers =
        set.instances[entry.instance].routers;
    std::sort(origin_routers.begin(), origin_routers.end());
    std::sort(carrier_routers.begin(), carrier_routers.end());
    std::vector<model::RouterId> shared;
    std::set_intersection(origin_routers.begin(), origin_routers.end(),
                          carrier_routers.begin(), carrier_routers.end(),
                          std::back_inserter(shared));
    std::erase(shared, edge.router);
    if (shared.empty()) continue;
    std::string subject = instance_label(set, entry.origin);
    subject += " -> ";
    subject += instance_label(set, entry.instance);
    std::string detail = "routes of ";
    detail += instance_label(set, entry.origin);
    detail += " redistributed here arrive in ";
    detail += instance_label(set, entry.instance);
    detail += " with administrative distance ";
    detail += std::to_string(distance_external(carrier_proto));
    detail += ", beating the native distance ";
    detail += std::to_string(distance_internal(origin_proto));
    detail += " on ";
    detail += router_name(ctx.network, shared.front());
    detail += "; which copy wins there depends on arrival order";
    out.push_back(make_finding(edge.router, std::move(subject),
                               std::move(detail), edge.line, shared.front()));
  }
  return out;
}

// --- RD063: mutual redistribution without a filter ---------------------------

std::vector<Finding> RedistributionSafety::unfiltered_mutual(
    const Context& ctx) {
  const auto& set = ctx.graph.set;
  const auto& network = ctx.network;
  // Per ordered instance pair: is any edge in that direction unable to deny
  // anything, and where is the first such open command?
  struct Direction {
    bool open = false;          // some edge filters nothing
    model::RouterId router = model::kInvalidId;
    std::size_t line = 0;
    std::string why;
  };
  std::map<std::pair<std::uint32_t, std::uint32_t>, Direction> directions;
  for (const auto& redist : network.redistribution_edges()) {
    if (redist.source_kind != model::RibKind::kProcess) continue;
    const std::uint32_t from = set.instance_of[redist.source_process];
    const std::uint32_t to = set.instance_of[redist.target_process];
    if (from == to) continue;
    auto& dir = directions[{from, to}];
    if (dir.open) continue;
    const auto& config = network.routers()[redist.router];
    std::string why;
    if (!redist.route_map) {
      why = "no route-map";
    } else {
      const auto facts = model::route_map_facts(config, *redist.route_map);
      if (!facts.resolved) {
        why = "route-map " + *redist.route_map + " is not defined";
      } else if (!facts.may_deny) {
        why = "route-map " + *redist.route_map + " permits every route";
      }
    }
    if (why.empty()) continue;
    dir.open = true;
    dir.router = redist.router;
    dir.line = redistribute_line(network, redist);
    dir.why = std::move(why);
  }
  std::vector<Finding> out;
  for (const auto& [key, dir] : directions) {
    const auto [from, to] = key;
    if (from > to) continue;  // handle each unordered pair once
    const auto reverse = directions.find({to, from});
    if (reverse == directions.end()) continue;  // not mutual
    const Direction* anchor = nullptr;
    if (dir.open) {
      anchor = &dir;
    } else if (reverse->second.open) {
      anchor = &reverse->second;
    }
    if (anchor == nullptr) continue;
    std::string subject = instance_label(set, from);
    subject += " <-> ";
    subject += instance_label(set, to);
    std::string detail =
        "mutual redistribution between the two instances with an unfiltered "
        "direction (";
    detail += anchor->why;
    detail +=
        "): any route leaking in one direction can be handed straight back";
    out.push_back(make_finding(anchor->router, std::move(subject),
                               std::move(detail), anchor->line));
  }
  return out;
}

// --- RD064: single-point redistribution --------------------------------------

std::vector<Finding> RedistributionSafety::single_point(const Context& ctx) {
  std::vector<Finding> out;
  const auto& set = ctx.graph.set;
  const auto& network = ctx.network;
  for (const auto& pair : redistribution_redundancy(network, ctx.graph)) {
    if (!pair.single_point_of_failure()) continue;
    // Pairs where either side is a single-router instance are the business
    // of RD031 (structural single point of failure); this rule targets the
    // §6 smell of two multi-router populations meeting in one box.
    if (set.instances[pair.instance_a].router_count() < 2 ||
        set.instances[pair.instance_b].router_count() < 2) {
      continue;
    }
    // A BGP AS meeting an IGP at its one border router is the normal
    // injection design, not a smell; the paper's concern is two IGP
    // populations stitched together through a single box.
    if (set.instances[pair.instance_a].protocol ==
            config::RoutingProtocol::kBgp ||
        set.instances[pair.instance_b].protocol ==
            config::RoutingProtocol::kBgp) {
      continue;
    }
    // Only pairs glued by *redistribution*: instances exchanging routes
    // purely over EBGP sessions (e.g. a hub AS fanning out to spoke ASs)
    // concentrate on one router by design, and BGP's session model — not a
    // redistribution boundary — is what fails with the router.
    bool redistributes = false;
    for (const auto& edge : ctx.graph.edges) {
      if (edge.kind != graph::InstanceEdge::Kind::kRedistribution) continue;
      const std::pair<std::uint32_t, std::uint32_t> key =
          std::minmax(edge.from, edge.to);
      if (key == std::pair<std::uint32_t, std::uint32_t>(
                     std::minmax(pair.instance_a, pair.instance_b))) {
        redistributes = true;
        break;
      }
    }
    if (!redistributes) continue;
    const model::RouterId point = pair.connecting_routers.front();
    // Losing `point` must actually disconnect the pair in the instance
    // graph — no alternate route-exchange path through other instances.
    std::vector<std::vector<std::uint32_t>> adjacent(set.instances.size());
    for (const auto& edge : ctx.graph.edges) {
      if (edge.kind == graph::InstanceEdge::Kind::kExternal) continue;
      if (edge.router == point) continue;
      adjacent[edge.from].push_back(edge.to);
      adjacent[edge.to].push_back(edge.from);
    }
    std::vector<char> seen(set.instances.size(), 0);
    std::vector<std::uint32_t> stack{pair.instance_a};
    seen[pair.instance_a] = 1;
    bool connected = false;
    while (!stack.empty()) {
      const std::uint32_t at = stack.back();
      stack.pop_back();
      if (at == pair.instance_b) {
        connected = true;
        break;
      }
      for (const std::uint32_t next : adjacent[at]) {
        if (!seen[next]) {
          seen[next] = 1;
          stack.push_back(next);
        }
      }
    }
    if (connected) continue;
    // Anchor at the first redistribute command joining the pair on `point`.
    std::size_t line = 0;
    for (const auto& redist : network.redistribution_edges()) {
      if (redist.source_kind != model::RibKind::kProcess) continue;
      if (redist.router != point) continue;
      const std::uint32_t from = set.instance_of[redist.source_process];
      const std::uint32_t to = set.instance_of[redist.target_process];
      const std::pair<std::uint32_t, std::uint32_t> key =
          std::minmax(from, to);
      if (key != std::pair<std::uint32_t, std::uint32_t>(
                     std::minmax(pair.instance_a, pair.instance_b))) {
        continue;
      }
      line = redistribute_line(network, redist);
      break;
    }
    std::string subject = instance_label(set, pair.instance_a);
    subject += " <-> ";
    subject += instance_label(set, pair.instance_b);
    std::string detail = "the only route exchange between these two "
        "multi-router instances happens on ";
    detail += router_name(network, point);
    detail += "; losing that router partitions them with no alternate path "
        "through any other instance";
    out.push_back(make_finding(point, std::move(subject), std::move(detail),
                               line));
  }
  return out;
}

}  // namespace rd::analysis
