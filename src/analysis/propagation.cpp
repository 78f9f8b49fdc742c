#include "analysis/propagation.h"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "ip/prefix_trie.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace rd::analysis::prop {

using model::Route;

Problem discover(const model::Network& network,
                 const graph::InstanceSet& instances,
                 const DiscoverOptions& options,
                 const std::vector<ip::Prefix>& external_origin) {
  Problem problem;
  problem.instance_count = instances.instances.size();
  problem.max_iterations = options.max_iterations;
  problem.universe.reserve(external_origin.size());
  for (const auto& prefix : external_origin) {
    problem.universe.push_back({prefix, std::nullopt});
  }

  // --- Origination seeds.
  for (model::ProcessId p = 0; p < network.processes().size(); ++p) {
    const auto& process = network.processes()[p];
    const std::uint32_t inst = instances.instance_of[p];
    const auto& config = network.routers()[process.router];
    const auto& stanza = config.router_stanzas[process.stanza_index];
    if (config::is_conventional_igp(process.protocol)) {
      for (const model::InterfaceId i : process.covered_interfaces) {
        if (network.interfaces()[i].subnet) {
          problem.seeds.push_back(
              {inst, process.router,
               Route{*network.interfaces()[i].subnet, std::nullopt}});
        }
      }
    } else {
      for (const auto& ns : stanza.networks) {
        problem.seeds.push_back(
            {inst, process.router, Route{ns.prefix(), std::nullopt}});
      }
    }
  }

  // --- Local-RIB redistribution (connected / static): one-time injection.
  for (const auto& redist : network.redistribution_edges()) {
    if (redist.source_kind != model::RibKind::kLocal) continue;
    const auto& target = network.processes()[redist.target_process];
    const std::uint32_t inst = instances.instance_of[redist.target_process];
    const auto& config = network.routers()[redist.router];
    const auto& command = config.router_stanzas[target.stanza_index]
                              .redistributes[redist.redistribute_index];

    std::vector<Route> local_routes;
    if (command.source == config::RedistributeSource::kConnected ||
        command.source == config::RedistributeSource::kProtocol) {
      // kProtocol reaching here means a dangling source; treat as connected
      // so the designer's intent (import something locally) is preserved.
      for (const model::InterfaceId i :
           network.router_interfaces(redist.router)) {
        if (network.interfaces()[i].subnet) {
          local_routes.push_back({*network.interfaces()[i].subnet, {}});
        }
      }
    }
    if (command.source == config::RedistributeSource::kStatic) {
      for (const auto& sr : config.static_routes) {
        local_routes.push_back({sr.prefix(), {}});
      }
    }
    for (const Route& route : local_routes) {
      if (command.route_map) {
        const auto* rm = config.find_route_map(*command.route_map);
        if (rm != nullptr) {
          const auto verdict = model::route_map_evaluate(*rm, config, route);
          if (verdict.permitted) {
            problem.seeds.push_back({inst, redist.router, verdict.route});
          }
          continue;
        }
      }
      problem.seeds.push_back({inst, redist.router, route});
    }
  }

  // --- Internal EBGP session flows.
  for (const auto& session : network.bgp_sessions()) {
    if (session.external() || !session.ebgp()) continue;
    // Flow into the configuring endpoint: remote instance -> local instance.
    const auto& local_process = network.processes()[session.local_process];
    const auto& local_config = network.routers()[local_process.router];
    const auto& local_stanza =
        local_config.router_stanzas[local_process.stanza_index];
    InternalFlow flow;
    flow.from_instance = instances.instance_of[session.remote_process];
    flow.to_instance = instances.instance_of[session.local_process];
    flow.receiver_in = {&local_config,
                        &local_stanza.neighbors[session.neighbor_index]};
    // The sender's outbound policy toward us, when the mirror session is
    // configured.
    const auto& remote_process = network.processes()[session.remote_process];
    const auto& remote_config = network.routers()[remote_process.router];
    const auto& remote_stanza =
        remote_config.router_stanzas[remote_process.stanza_index];
    flow.from_router = remote_process.router;
    flow.to_router = local_process.router;
    for (const auto& nbr : remote_stanza.neighbors) {
      // Any interface address of the local router identifies us.
      bool ours = false;
      for (const model::InterfaceId i :
           network.router_interfaces(local_process.router)) {
        if (network.interfaces()[i].address == nbr.address) {
          ours = true;
          break;
        }
      }
      if (ours) {
        flow.sender_out = {&remote_config, &nbr};
        break;
      }
    }
    problem.flows.push_back(flow);
  }

  // --- External session endpoints (for injection and announcement).
  std::vector<std::size_t> active;
  if (options.active_external_endpoints) {
    active = *options.active_external_endpoints;
    std::sort(active.begin(), active.end());
  }
  std::size_t endpoint_index = 0;
  auto endpoint_active = [&](std::size_t index) {
    return !options.active_external_endpoints ||
           std::binary_search(active.begin(), active.end(), index);
  };
  for (const auto& session : network.bgp_sessions()) {
    if (!session.external()) continue;
    const std::size_t index = endpoint_index++;
    if (!endpoint_active(index)) continue;
    const auto& process = network.processes()[session.local_process];
    const auto& config = network.routers()[process.router];
    const auto& stanza = config.router_stanzas[process.stanza_index];
    problem.external_endpoints.push_back(
        {instances.instance_of[session.local_process],
         {&config, &stanza.neighbors[session.neighbor_index]},
         process.router});
  }
  for (const auto& ext : network.external_igp_adjacencies()) {
    const std::size_t index = endpoint_index++;
    if (!endpoint_active(index)) continue;
    const auto& process = network.processes()[ext.process];
    const auto& config = network.routers()[process.router];
    problem.external_igp_endpoints.push_back(
        {instances.instance_of[ext.process], &config,
         &config.router_stanzas[process.stanza_index], process.router});
  }

  // --- BGP aggregation points ("aggregate-address", §3.1 summarization):
  // the summary originates once any contained more-specific is present.
  for (model::ProcessId p = 0; p < network.processes().size(); ++p) {
    const auto& process = network.processes()[p];
    if (process.protocol != config::RoutingProtocol::kBgp) continue;
    const auto& stanza = network.routers()[process.router]
                             .router_stanzas[process.stanza_index];
    for (const auto& aggregate : stanza.aggregates) {
      problem.aggregate_points.push_back(
          {instances.instance_of[p], aggregate.prefix(), process.router});
    }
  }

  // --- Inter-instance redistribution edges.
  for (const auto& redist : network.redistribution_edges()) {
    if (redist.source_kind != model::RibKind::kProcess) continue;
    const std::uint32_t from = instances.instance_of[redist.source_process];
    const std::uint32_t to = instances.instance_of[redist.target_process];
    if (from == to) continue;
    const auto& config = network.routers()[redist.router];
    const auto& target = network.processes()[redist.target_process];
    const auto& stanza = config.router_stanzas[target.stanza_index];
    problem.redist_edges.push_back(
        {from, to, &config, &stanza, &redist.route_map, redist.router,
         stanza.redistributes[redist.redistribute_index].line});
  }
  return problem;
}

Problem masked(const Problem& problem,
               const std::vector<model::RouterId>& failed) {
  auto down = [&](model::RouterId router) {
    return std::binary_search(failed.begin(), failed.end(), router);
  };
  Problem out;
  out.instance_count = problem.instance_count;
  out.max_iterations = problem.max_iterations;
  out.universe = problem.universe;
  for (const auto& seed : problem.seeds) {
    if (!down(seed.router)) out.seeds.push_back(seed);
  }
  for (const auto& flow : problem.flows) {
    if (!down(flow.from_router) && !down(flow.to_router)) {
      out.flows.push_back(flow);
    }
  }
  for (const auto& endpoint : problem.external_endpoints) {
    if (!down(endpoint.router)) out.external_endpoints.push_back(endpoint);
  }
  for (const auto& endpoint : problem.external_igp_endpoints) {
    if (!down(endpoint.router)) {
      out.external_igp_endpoints.push_back(endpoint);
    }
  }
  for (const auto& point : problem.aggregate_points) {
    if (!down(point.router)) out.aggregate_points.push_back(point);
  }
  for (const auto& edge : problem.redist_edges) {
    if (!down(edge.router)) out.redist_edges.push_back(edge);
  }
  return out;
}

std::vector<ip::Prefix> external_universe(
    const model::Network& network, const std::vector<ip::Prefix>& extra) {
  // Default route + policy-mentioned prefixes + caller-supplied prefixes.
  // Internal subnets are excluded so external origin stays meaningful.
  // Candidates are collected into a vector and sorted once — at fleet scale
  // there are thousands, and the internal test runs against a covering trie
  // of interface subnets instead of Network's per-call linear scan.
  std::vector<ip::Prefix> origin;
  origin.push_back(ip::Prefix(ip::Ipv4Address(0u), 0));
  for (const auto& config : network.routers()) {
    for (const auto& acl : config.access_lists) {
      for (const auto& rule : acl.rules) {
        if (rule.action != config::FilterAction::kPermit) continue;
        if (!rule.any_source && !rule.extended) {
          origin.push_back(rule.source);
        }
      }
    }
    for (const auto& pl : config.prefix_lists) {
      for (const auto& entry : pl.entries) {
        if (entry.action == config::FilterAction::kPermit) {
          origin.push_back(entry.prefix);
        }
      }
    }
  }
  for (const auto& prefix : extra) {
    origin.push_back(prefix);
  }
  std::sort(origin.begin(), origin.end());
  origin.erase(std::unique(origin.begin(), origin.end()), origin.end());
  ip::PrefixTrie<char> internal;
  for (const auto& itf : network.interfaces()) {
    if (itf.subnet) internal.insert(*itf.subnet, 1);
    for (const auto& secondary : itf.secondary_subnets) {
      internal.insert(secondary, 1);
    }
  }
  std::erase_if(origin, [&](const ip::Prefix& prefix) {
    return prefix.length() > 0 &&
           internal.longest_match(prefix.network()) != nullptr;
  });
  return origin;
}

CompiledSessionDir compile_session_dir(model::PolicyCompiler& compiler,
                                       const SessionPolicy& policy,
                                       bool inbound) {
  CompiledSessionDir out;
  if (policy.config == nullptr || policy.neighbor == nullptr) return out;
  const auto& dl = inbound ? policy.neighbor->distribute_list_in
                           : policy.neighbor->distribute_list_out;
  if (dl) out.distribute_list = compiler.acl(*policy.config, *dl);
  const auto& pl = inbound ? policy.neighbor->prefix_list_in
                           : policy.neighbor->prefix_list_out;
  if (pl) out.prefix_list = compiler.prefix_list(*policy.config, *pl);
  const auto& rm = inbound ? policy.neighbor->route_map_in
                           : policy.neighbor->route_map_out;
  if (rm) out.route_map = compiler.route_map(*policy.config, *rm);
  return out;
}

CompiledStanzaDir compile_stanza_dir(model::PolicyCompiler& compiler,
                                     const config::RouterConfig& config,
                                     const config::RouterStanza& stanza,
                                     bool inbound) {
  CompiledStanzaDir out;
  for (const auto& dl : stanza.distribute_lists) {
    if (dl.inbound != inbound) continue;
    if (const auto* acl = compiler.acl(config, dl.acl)) out.acls.push_back(acl);
  }
  return out;
}

std::size_t held_count(const std::vector<std::uint64_t>& bits) noexcept {
  std::size_t count = 0;
  for (const std::uint64_t w : bits) count += std::popcount(w);
  return count;
}

Propagation propagate(const Problem& problem,
                      std::optional<std::uint64_t> shuffle_seed) {
  Propagation result;
  const std::size_t n = problem.instance_count;

  // --- Compile every edge's policy chain. The compiler dedups by AST node,
  // so edges sharing a policy share one compiled object — and one route-map
  // verdict memo.
  model::PolicyCompiler compiler;
  struct CompiledFlow {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    CompiledSessionDir sender_out;
    CompiledSessionDir receiver_in;
  };
  std::vector<CompiledFlow> flows;
  flows.reserve(problem.flows.size());
  for (const auto& flow : problem.flows) {
    flows.push_back({flow.from_instance, flow.to_instance,
                     compile_session_dir(compiler, flow.sender_out, false),
                     compile_session_dir(compiler, flow.receiver_in, true)});
  }
  // Redistribution chains are shared wholesale across edges (regions
  // instantiate the same template), and the universe dominates what flows
  // through them — so edges sharing a (route-map, ACL set) chain share one
  // flat verdict cache indexed by universe position. A cache hit replaces
  // a route-map memo lookup (which hashes the whole Route) with an array
  // read. Entries: 0 unevaluated, 1 denied, else 2 + forwarded position.
  struct RedistVerdictCache {
    std::vector<std::uint8_t> state;           // 0 unknown, 1 deny, 2 permit
    std::vector<std::uint32_t> forwarded_pos;  // domain position, state == 2
  };
  struct CompiledRedist {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    const model::CompiledRouteMap* route_map = nullptr;  // null: pass through
    CompiledStanzaDir outbound;
    RedistVerdictCache* cache = nullptr;  // null: identity chain
  };
  std::vector<CompiledRedist> redists;
  redists.reserve(problem.redist_edges.size());
  std::map<std::pair<const model::CompiledRouteMap*,
                     std::vector<const model::CompiledAclFilter*>>,
           std::unique_ptr<RedistVerdictCache>>
      redist_caches;
  for (const auto& edge : problem.redist_edges) {
    CompiledRedist compiled;
    compiled.from = edge.from_instance;
    compiled.to = edge.to_instance;
    if (*edge.route_map) {
      compiled.route_map = compiler.route_map(*edge.config, **edge.route_map);
    }
    compiled.outbound =
        compile_stanza_dir(compiler, *edge.config, *edge.stanza, false);
    if (compiled.route_map != nullptr || !compiled.outbound.acls.empty()) {
      auto& slot = redist_caches[{compiled.route_map,
                                  compiled.outbound.acls}];
      if (!slot) slot = std::make_unique<RedistVerdictCache>();
      compiled.cache = slot.get();
    }
    redists.push_back(std::move(compiled));
  }
  struct CompiledExternal {
    std::uint32_t instance = 0;
    CompiledSessionDir inbound;
    CompiledSessionDir outbound;
  };
  std::vector<CompiledExternal> externals;
  externals.reserve(problem.external_endpoints.size());
  for (const auto& endpoint : problem.external_endpoints) {
    externals.push_back({endpoint.instance,
                         compile_session_dir(compiler, endpoint.policy, true),
                         compile_session_dir(compiler, endpoint.policy, false)});
  }
  struct CompiledIgpExternal {
    std::uint32_t instance = 0;
    CompiledStanzaDir inbound;
    CompiledStanzaDir outbound;
  };
  std::vector<CompiledIgpExternal> igp_externals;
  igp_externals.reserve(problem.external_igp_endpoints.size());
  for (const auto& endpoint : problem.external_igp_endpoints) {
    igp_externals.push_back(
        {endpoint.instance,
         compile_stanza_dir(compiler, *endpoint.config, *endpoint.stanza, true),
         compile_stanza_dir(compiler, *endpoint.config, *endpoint.stanza,
                            false)});
  }

  // --- The route domain: one growing, deduplicated table of every route
  // the run will ever see — the external offer universe (kept in front, in
  // ascending order), the origination seeds, and whatever redistribution
  // rewrites or aggregation manufacture later. Interning gives each route a
  // stable position, so per-instance membership collapses to a bitmap and
  // set propagation to word operations; no per-route hash probe survives on
  // a hot path, and no per-instance route log exists at all — the bitmaps
  // ARE the state, materialized (if at all) by `materialize`.
  std::vector<Route>& domain = result.domain;
  domain = problem.universe;  // offers first, ascending
  DomainIndex domain_index(domain.size() + problem.seeds.size());
  for (std::size_t u = 0; u < domain.size(); ++u) {
    domain_index.insert(route_key(domain[u]), static_cast<std::uint32_t>(u));
  }
  const std::size_t offer_count = domain.size();
  result.offer_count = offer_count;
  auto intern = [&](const Route& route) {
    const std::uint32_t next = static_cast<std::uint32_t>(domain.size());
    const std::uint32_t pos = domain_index.insert(route_key(route), next);
    if (pos == next) domain.push_back(route);
    return pos;
  };
  const auto words_for = [](std::size_t positions) {
    return (positions + 63) / 64;
  };

  // Per-instance membership bitmaps over domain positions. A bitmap stays
  // empty until its instance holds a route; external injection sizes it to
  // the offers, and any other bit past its end grows it to the whole
  // current domain (`add_pos`, the flow branch), so a non-empty bitmap
  // costs the domain's size. Words past a bitmap's end read as zero.
  auto& member = result.member;
  member.resize(n);
  std::vector<char> dirty(n, 0);
  auto add_pos = [&](std::uint32_t instance, std::uint32_t pos) {
    auto& bits = member[instance];
    const std::size_t w = pos >> 6;
    if (bits.size() <= w) bits.resize(words_for(domain.size()), 0);
    const std::uint64_t bit = 1ULL << (pos & 63);
    if (bits[w] & bit) return false;
    bits[w] |= bit;
    dirty[instance] = 1;
    return true;
  };

  // External injection happens exactly once: the offer universe and the
  // inbound policies are constant, so re-offering every iteration (as the
  // naïve loop does) can never add anything new after the first pass.
  // Endpoints sharing an instance and a compiled chain are interchangeable
  // here (identical offers, identical announcements below), so each
  // distinct (instance, chain) pair is evaluated once.
  std::set<std::tuple<std::uint32_t, const void*, const void*, const void*>>
      seen_session;
  auto session_seen = [&](std::uint32_t instance,
                          const CompiledSessionDir& dir) {
    return !seen_session
                .insert({instance, dir.distribute_list, dir.prefix_list,
                         dir.route_map})
                .second;
  };
  std::set<std::pair<std::uint32_t,
                     std::vector<const model::CompiledAclFilter*>>>
      seen_stanza;
  auto stanza_seen = [&](std::uint32_t instance,
                         const CompiledStanzaDir& dir) {
    return !seen_stanza.insert({instance, dir.acls}).second;
  };
  // The offers occupy positions [0, offer_count), so a filterless chain
  // admits them with a word-wise bitmap fill; a filtering chain evaluates
  // per offer, with the bit test standing in for a membership probe.
  const std::size_t offer_words = words_for(offer_count);
  auto inject_all = [&](std::uint32_t instance) {
    auto& bits = member[instance];
    if (bits.size() < offer_words) bits.resize(offer_words, 0);
    for (std::size_t w = 0; w < offer_words; ++w) {
      const std::size_t base = w * 64;
      const std::size_t in_word =
          std::min<std::size_t>(64, offer_count - base);
      const std::uint64_t valid =
          in_word == 64 ? ~0ULL : (1ULL << in_word) - 1;
      if (~bits[w] & valid) dirty[instance] = 1;
      bits[w] |= valid;
    }
  };
  auto inject_filtered = [&](std::uint32_t instance, const auto& chain) {
    auto& bits = member[instance];
    if (bits.size() < offer_words) bits.resize(offer_words, 0);
    for (std::size_t u = 0; u < offer_count; ++u) {
      const std::uint64_t bit = 1ULL << (u & 63);
      if (bits[u >> 6] & bit) continue;
      if (chain.permits(domain[u])) {
        bits[u >> 6] |= bit;
        dirty[instance] = 1;
      }
    }
  };
  for (const auto& endpoint : externals) {
    if (session_seen(endpoint.instance, endpoint.inbound)) continue;
    if (endpoint.inbound.trivially_permits()) {
      inject_all(endpoint.instance);
    } else {
      inject_filtered(endpoint.instance, endpoint.inbound);
    }
  }
  for (const auto& endpoint : igp_externals) {
    if (stanza_seen(endpoint.instance, endpoint.inbound)) continue;
    if (endpoint.inbound.trivially_permits()) {
      inject_all(endpoint.instance);
    } else {
      inject_filtered(endpoint.instance, endpoint.inbound);
    }
  }

  for (const auto& seed : problem.seeds) {
    add_pos(seed.instance, intern(seed.route));
  }

  // --- Edges grouped by source instance. An aggregation point is an edge
  // from an instance to itself. Each edge keeps an `offered` bitmap — the
  // source positions it has already pushed through its policy chain — so a
  // pass over an edge costs one AND-NOT per 64 held routes plus policy
  // work only for genuinely new positions: each (edge, route) pair is
  // still evaluated exactly once per run, the semi-naïve invariant.
  struct Edge {
    enum class Kind : std::uint8_t { kFlow, kRedist, kAggregate };
    Kind kind = Kind::kFlow;
    std::size_t index = 0;  // into flows / redists / aggregate_points
  };
  std::vector<std::vector<Edge>> edges_by_source(n);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    edges_by_source[flows[i].from].push_back({Edge::Kind::kFlow, i});
  }
  for (std::size_t i = 0; i < redists.size(); ++i) {
    edges_by_source[redists[i].from].push_back({Edge::Kind::kRedist, i});
  }
  for (std::size_t i = 0; i < problem.aggregate_points.size(); ++i) {
    edges_by_source[problem.aggregate_points[i].instance].push_back(
        {Edge::Kind::kAggregate, i});
  }
  if (shuffle_seed) {
    // Fisher–Yates per source list. The fixpoint is confluent, so this can
    // only change the order work is discovered in, never the result — the
    // differential stress test runs many seeds to prove it.
    util::Rng rng(*shuffle_seed);
    for (auto& edges : edges_by_source) {
      for (std::size_t i = edges.size(); i > 1; --i) {
        std::swap(edges[i - 1], edges[rng.below(i)]);
      }
    }
  }
  std::vector<std::vector<std::uint64_t>> flow_offered(flows.size());
  std::vector<std::vector<std::uint64_t>> redist_offered(redists.size());
  std::vector<std::vector<std::uint64_t>> agg_offered(
      problem.aggregate_points.size());
  std::vector<char> aggregate_done(problem.aggregate_points.size(), 0);

  // --- Worklist rounds. A round drains every dirty instance; an edge only
  // evaluates source positions its `offered` bitmap has not seen. Routes
  // discovered mid-round land in the next round's worklist.
  std::vector<std::uint32_t> current;
  auto held_total = [&] {
    std::size_t total = 0;
    for (const auto& bits : member) total += held_count(bits);
    return total;
  };
  while (true) {
    current.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      if (dirty[i]) {
        current.push_back(i);
        dirty[i] = 0;
      }
    }
    if (current.empty()) break;
    if (result.iterations >= problem.max_iterations) {
      result.converged = false;
      break;
    }
    ++result.iterations;

    // Per-round span with the semi-naïve delta sizes: how many instances
    // were dirty and how many routes this round added. The popcount sweep
    // is only taken when tracing is on.
    obs::Span round_span("reachability.round", "reachability");
    std::size_t before = 0;
    if (round_span.armed()) {
      round_span.arg("round", result.iterations);
      round_span.arg("dirty_instances", current.size());
      before = held_total();
    }

    for (const std::uint32_t instance : current) {
      for (const Edge& edge : edges_by_source[instance]) {
        // `member[instance]` may grow (reallocate) while an edge targeting
        // the same instance runs; everything below indexes through the
        // vector object, never through a raw pointer into its buffer.
        const auto& source = member[instance];
        if (source.empty()) continue;
        switch (edge.kind) {
          case Edge::Kind::kFlow: {
            const CompiledFlow& flow = flows[edge.index];
            auto& offered = flow_offered[edge.index];
            if (offered.size() < source.size()) {
              offered.resize(source.size(), 0);
            }
            auto& target = member[flow.to];
            for (std::size_t w = 0; w < source.size(); ++w) {
              std::uint64_t fresh = source[w] & ~offered[w];
              if (fresh == 0) continue;
              offered[w] |= fresh;
              if (w < target.size()) fresh &= ~target[w];
              while (fresh != 0) {
                const int b = std::countr_zero(fresh);
                fresh &= fresh - 1;
                const Route& route = domain[w * 64 + b];
                if (!flow.sender_out.permits(route)) continue;
                if (!flow.receiver_in.permits(route)) continue;
                if (target.size() <= w) {
                  target.resize(words_for(domain.size()), 0);
                }
                target[w] |= 1ULL << b;
                dirty[flow.to] = 1;
              }
            }
            break;
          }
          case Edge::Kind::kRedist: {
            const CompiledRedist& redist = redists[edge.index];
            auto& offered = redist_offered[edge.index];
            if (offered.size() < source.size()) {
              offered.resize(source.size(), 0);
            }
            RedistVerdictCache* cache = redist.cache;
            if (cache != nullptr &&
                cache->state.size() < source.size() * 64) {
              cache->state.resize(source.size() * 64, 0);
              cache->forwarded_pos.resize(source.size() * 64, 0);
            }
            for (std::size_t w = 0; w < source.size(); ++w) {
              std::uint64_t fresh = source[w] & ~offered[w];
              if (fresh == 0) continue;
              offered[w] |= fresh;
              while (fresh != 0) {
                const int b = std::countr_zero(fresh);
                fresh &= fresh - 1;
                const std::uint32_t pos =
                    static_cast<std::uint32_t>(w * 64 + b);
                if (cache == nullptr) {  // identity chain: route unchanged
                  add_pos(redist.to, pos);
                  continue;
                }
                if (cache->state[pos] == 0) {
                  Route forwarded = domain[pos];  // copy: intern may grow
                  bool permitted = true;
                  if (redist.route_map) {
                    const auto verdict =
                        redist.route_map->evaluate_nomemo(forwarded);
                    permitted = verdict.permitted;
                    if (permitted) forwarded = verdict.route;
                  }
                  permitted =
                      permitted && redist.outbound.permits(forwarded);
                  if (permitted) {
                    cache->state[pos] = 2;
                    cache->forwarded_pos[pos] = intern(forwarded);
                  } else {
                    cache->state[pos] = 1;
                  }
                }
                if (cache->state[pos] == 2) {
                  add_pos(redist.to, cache->forwarded_pos[pos]);
                }
              }
            }
            break;
          }
          case Edge::Kind::kAggregate: {
            if (aggregate_done[edge.index]) break;
            const AggregatePoint& point =
                problem.aggregate_points[edge.index];
            auto& offered = agg_offered[edge.index];
            if (offered.size() < source.size()) {
              offered.resize(source.size(), 0);
            }
            for (std::size_t w = 0;
                 w < source.size() && !aggregate_done[edge.index]; ++w) {
              std::uint64_t fresh = source[w] & ~offered[w];
              if (fresh == 0) continue;
              offered[w] |= fresh;
              while (fresh != 0) {
                const int b = std::countr_zero(fresh);
                fresh &= fresh - 1;
                const Route route = domain[w * 64 + b];  // copy: intern below
                if (route.prefix != point.prefix &&
                    point.prefix.contains(route.prefix)) {
                  add_pos(point.instance,
                          intern(Route{point.prefix, std::nullopt}));
                  aggregate_done[edge.index] = 1;
                  break;
                }
              }
            }
            break;
          }
        }
      }
    }
    if (round_span.armed()) {
      round_span.arg("routes_appended", held_total() - before);
    }
  }

  // --- Announce pass, through the compiled outbound chains: one
  // evaluation per distinct (instance, chain) pair. The announced set is
  // itself a bitmap — a filterless chain ORs the instance's whole holding
  // in; a filtering chain evaluates only positions nothing announced yet
  // (a route one chain denies stays clear and is re-offered to the next
  // chain, which may permit it).
  seen_session.clear();
  seen_stanza.clear();
  auto& announced = result.announced;
  auto announce_instance = [&](std::uint32_t instance, const auto& chain) {
    const auto& source = member[instance];
    if (source.empty()) return;
    if (announced.size() < source.size()) announced.resize(source.size(), 0);
    if (chain.trivially_permits()) {
      for (std::size_t w = 0; w < source.size(); ++w) {
        announced[w] |= source[w];
      }
      return;
    }
    for (std::size_t w = 0; w < source.size(); ++w) {
      std::uint64_t fresh = source[w] & ~announced[w];
      while (fresh != 0) {
        const int b = std::countr_zero(fresh);
        fresh &= fresh - 1;
        if (chain.permits(domain[w * 64 + b])) announced[w] |= 1ULL << b;
      }
    }
  };
  for (const auto& endpoint : externals) {
    if (session_seen(endpoint.instance, endpoint.outbound)) continue;
    announce_instance(endpoint.instance, endpoint.outbound);
  }
  for (const auto& endpoint : igp_externals) {
    if (stanza_seen(endpoint.instance, endpoint.outbound)) continue;
    announce_instance(endpoint.instance, endpoint.outbound);
  }
  return result;
}

FixpointResult materialize(const Propagation& propagation) {
  // A sorted permutation of the domain is computed once (the offer prefix
  // is pre-sorted; only the interned tail needs ordering), then every
  // result vector is emitted directly in route order: dense holdings scan
  // the permutation and test bits, sparse ones collect their positions'
  // ranks and sort those. Nothing ever sorts full Route records again.
  const auto& domain = propagation.domain;
  const auto offer_end =
      static_cast<std::ptrdiff_t>(propagation.offer_count);
  const auto pos_less = [&](std::uint32_t a, std::uint32_t b) noexcept {
    return route_key(domain[a]) < route_key(domain[b]);
  };
  std::vector<std::uint32_t> order(domain.size());
  for (std::uint32_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin() + offer_end, order.end(), pos_less);
  std::inplace_merge(order.begin(), order.begin() + offer_end, order.end(),
                     pos_less);
  std::vector<std::uint32_t> rank(domain.size());
  for (std::uint32_t k = 0; k < order.size(); ++k) rank[order[k]] = k;
  std::vector<std::uint32_t> ranks;  // sparse-path scratch
  auto emit = [&](const std::vector<std::uint64_t>& bits,
                  std::vector<Route>& out) {
    const std::size_t count = held_count(bits);
    if (count == 0) return;
    out.reserve(count);
    if (count * 8 >= order.size()) {  // dense: walk the domain in order
      for (const std::uint32_t pos : order) {
        if (holds(bits, pos)) out.push_back(domain[pos]);
      }
      return;
    }
    ranks.clear();
    ranks.reserve(count);
    for (std::size_t w = 0; w < bits.size(); ++w) {
      std::uint64_t word = bits[w];
      while (word != 0) {
        const int b = std::countr_zero(word);
        word &= word - 1;
        ranks.push_back(rank[w * 64 + b]);
      }
    }
    std::sort(ranks.begin(), ranks.end());
    for (const std::uint32_t k : ranks) out.push_back(domain[order[k]]);
  };
  FixpointResult result;
  result.iterations = propagation.iterations;
  result.converged = propagation.converged;
  result.routes.resize(propagation.member.size());
  for (std::size_t i = 0; i < propagation.member.size(); ++i) {
    emit(propagation.member[i], result.routes[i]);
  }
  emit(propagation.announced, result.announced);
  return result;
}

FixpointResult run_semi_naive(const Problem& problem,
                              std::optional<std::uint64_t> shuffle_seed) {
  return materialize(propagate(problem, shuffle_seed));
}

}  // namespace rd::analysis::prop
