#include "analysis/dataflow.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
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

/// One node of an origin's Problem: the facts held in an instance under one
/// exit router, or a sink that only records what a crossing let through.
/// The field order sorts the sinks by edge, then by exit router.
struct Node {
  enum class Role : std::uint8_t { kFacts, kLoopSink, kEntrySink };
  Role role = Role::kFacts;
  std::size_t edge = 0;                      // the sinks
  std::uint32_t instance = 0;                // kFacts
  model::RouterId exit = model::kInvalidId;  // kFacts, kLoopSink

  friend auto operator<=>(const Node&, const Node&) = default;
};

}  // namespace

InstanceDataflow::InstanceDataflow(const model::Network& network,
                                   const graph::InstanceGraph& graph) {
  obs::Span span("dataflow.run", "dataflow");
  const auto& set = graph.set;
  const std::size_t n = set.instances.size();
  // The propagation rules' own discovery: the same seeds, edges and policy
  // context the reachability fixpoint and the simulator evaluate.
  const prop::Problem problem = prop::discover(network, set, {}, {});

  // --- Edges: cross-instance redistribution commands, then internal EBGP
  // sessions (one per direction: remote -> local), each in model order.
  std::vector<std::vector<std::size_t>> out_edges(n);
  for (const auto& redist : problem.redist_edges) {
    out_edges[redist.from_instance].push_back(edges_.size());
    edges_.push_back({DataflowEdge::Kind::kRedistribution, redist.from_instance,
                      redist.to_instance, redist.router, redist.router,
                      redist.line});
  }
  for (const auto& flow : problem.flows) {
    out_edges[flow.from_instance].push_back(edges_.size());
    edges_.push_back({DataflowEdge::Kind::kSession, flow.from_instance,
                      flow.to_instance, flow.to_router, flow.from_router,
                      flow.receiver_in.neighbor->line});
  }

  // --- Seeds per origin, at its node 0: the Problem's origination and
  // local-RIB seeds, then BGP aggregates as unconditional origination (the
  // abstract domain does not track the contained-more-specific trigger the
  // concrete engine models — over-approximating keeps the rules sound for
  // loop detection).
  std::vector<std::vector<prop::Seed>> seeds(n);
  for (const auto& seed : problem.seeds) {
    seeds[seed.instance].push_back({0, seed.router, seed.route});
  }
  for (const auto& point : problem.aggregate_points) {
    seeds[point.instance].push_back(
        {0, point.router, {point.prefix, std::nullopt}});
  }

  // --- One Problem per origin. Facts of different origins never meet, so
  // each origin's facts are one propagation: node 0 holds the origin's
  // seeds, and the other nodes are the (instance, exit router) pairs its
  // facts reach, the exit stamped at the first crossing out of the origin.
  // Per origin, not one product over all of them: `propagate` sizes every
  // non-empty bitmap to the whole route domain.
  std::vector<Node> nodes;
  std::map<Node, std::uint32_t> index;
  const auto node_at = [&](const Node& node) {
    const auto [it, fresh] =
        index.emplace(node, static_cast<std::uint32_t>(nodes.size()));
    if (fresh) nodes.push_back(node);
    return it->second;
  };
  std::size_t origins = 0, fact_nodes = 0;
  for (std::uint32_t origin = 0; origin < n; ++origin) {
    if (seeds[origin].empty()) continue;
    ++origins;
    if (out_edges[origin].empty()) {  // nothing leaves: count its seeds
      std::set<model::Route> routes;
      for (const auto& seed : seeds[origin]) routes.insert(seed.route);
      total_facts_ += routes.size();
      ++fact_nodes;
      continue;
    }
    prop::Problem p;
    p.max_iterations = 256;  // the safety cap converged() reports
    p.seeds = seeds[origin];
    nodes.clear();
    index.clear();
    node_at({Node::Role::kFacts, 0, origin, model::kInvalidId});
    for (std::uint32_t k = 0; k < nodes.size(); ++k) {
      const Node node = nodes[k];  // copy: node_at grows `nodes`
      if (node.role != Node::Role::kFacts) continue;
      for (const std::size_t ei : out_edges[node.instance]) {
        const DataflowEdge& edge = edges_[ei];
        const Node to{Node::Role::kFacts, 0, edge.to,
                      node.exit != model::kInvalidId ? node.exit
                                                     : edge.exit_router};
        if (edge.kind == DataflowEdge::Kind::kSession) {
          // AS-path loop prevention: BGP never re-learns its own routes.
          if (edge.to == origin) continue;
          auto flow = problem.flows[ei - problem.redist_edges.size()];
          flow.from_instance = k;
          flow.to_instance = node_at(to);
          p.flows.push_back(flow);
          continue;
        }
        // Redistribution: route-map (unresolved names pass through, as in
        // IOS), then the target stanza's outbound distribute-lists.
        prop::RedistEdge redist = problem.redist_edges[ei];
        redist.from_instance = k;
        if (edge.to == origin) {
          // The instance's own route coming home is never re-injected,
          // which keeps the fact domain finite. A same-router bounce is
          // broken by that router's RIB (it prefers what it already has);
          // a multi-router cycle is live only when the carried copy's
          // distance beats the native route on the shared routers.
          if (node.exit != model::kInvalidId && node.exit != edge.router &&
              distance_external(set.instances[edge.from].protocol) <
                  distance_internal(set.instances[origin].protocol)) {
            redist.to_instance =
                node_at({Node::Role::kLoopSink, ei, 0, node.exit});
            p.redist_edges.push_back(redist);
          }
          continue;
        }
        redist.to_instance = node_at(to);
        p.redist_edges.push_back(redist);
        redist.to_instance = node_at({Node::Role::kEntrySink, ei});
        p.redist_edges.push_back(redist);
      }
    }
    p.instance_count = nodes.size();
    const prop::Propagation run = prop::propagate(p, std::nullopt);
    iterations_ = std::max(iterations_, run.iterations);
    converged_ = converged_ && run.converged;

    // Read the sinks in `index` order, by edge, then by exit router: per
    // closing edge the least exit router, with the least route through it
    // as the witness; per entered instance the lowest edge.
    std::set<std::uint32_t> entered;
    for (const auto& [node, k] : index) {
      const auto& bits = run.member[k];
      if (node.role == Node::Role::kFacts) {
        total_facts_ += prop::held_count(bits);
        ++fact_nodes;
        continue;
      }
      if (prop::held_count(bits) == 0) continue;
      const std::uint32_t to = edges_[node.edge].to;
      if (node.role == Node::Role::kEntrySink) {
        if (entered.insert(to).second) {
          entries_.push_back({origin, to, node.edge});
        }
        continue;
      }
      if (!loop_events_.empty() && loop_events_.back().edge == node.edge &&
          loop_events_.back().origin == origin) {
        continue;  // a lesser exit router closes this loop already
      }
      const model::Route* least = nullptr;
      for (std::uint32_t pos = 0; pos < bits.size() * 64; ++pos) {
        if (prop::holds(bits, pos) &&
            (least == nullptr || run.domain[pos] < *least)) {
          least = &run.domain[pos];
        }
      }
      loop_events_.push_back({node.edge, origin, node.exit, *least});
    }
  }
  const auto by_edge = [](const auto& a, const auto& b) {
    return std::tie(a.edge, a.origin) < std::tie(b.edge, b.origin);
  };
  std::sort(loop_events_.begin(), loop_events_.end(), by_edge);
  std::sort(entries_.begin(), entries_.end(), by_edge);

  span.arg("origins", origins);
  span.arg("nodes", fact_nodes);
  span.arg("facts", total_facts_);
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
  using Pair = std::pair<std::uint32_t, std::uint32_t>;  // ascending
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
    const Pair glued = std::minmax(pair.instance_a, pair.instance_b);
    const bool redistributes = std::any_of(
        ctx.graph.edges.begin(), ctx.graph.edges.end(), [&](const auto& e) {
          return e.kind == graph::InstanceEdge::Kind::kRedistribution &&
                 Pair(std::minmax(e.from, e.to)) == glued;
        });
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
    while (!stack.empty() && !seen[pair.instance_b]) {
      const std::uint32_t at = stack.back();
      stack.pop_back();
      for (const std::uint32_t next : adjacent[at]) {
        if (!seen[next]) {
          seen[next] = 1;
          stack.push_back(next);
        }
      }
    }
    if (seen[pair.instance_b]) continue;  // still connected
    // Anchor at the first redistribute command joining the pair on `point`.
    std::size_t line = 0;
    for (const auto& redist : network.redistribution_edges()) {
      if (redist.source_kind != model::RibKind::kProcess) continue;
      if (redist.router != point) continue;
      const std::uint32_t from = set.instance_of[redist.source_process];
      const std::uint32_t to = set.instance_of[redist.target_process];
      if (Pair(std::minmax(from, to)) != glued) continue;
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
