#include "analysis/rules.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <utility>

#include "analysis/consistency.h"
#include "analysis/dataflow.h"
#include "analysis/header_space.h"
#include "analysis/ibgp.h"
#include "analysis/lint.h"
#include "analysis/vulnerability.h"
#include "model/header_predicate.h"
#include "model/policy.h"
#include "obs/obs.h"
#include "util/json.h"

namespace rd::analysis {

std::string_view severity_name(Severity severity) noexcept {
  switch (severity) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

std::string_view severity_sarif_level(Severity severity) noexcept {
  switch (severity) {
    case Severity::kInfo:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "none";
}

std::string finding_fingerprint(const Finding& finding) {
  std::string out = finding.rule_id;
  out += '|';
  out += finding.router_name;
  out += '|';
  out += finding.subject;
  out += '|';
  out += finding.detail;
  return out;
}

namespace {

/// Shorthand used by every rule body: the engine stamps id / severity /
/// names / file afterwards.
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

// instance_label lives in dataflow.{h,cpp}, shared with the RD060-RD064
// rule bodies.

// --- lint rules (RD001-RD010): one registered rule per LintKind -------------

std::vector<Finding> run_lint_kind(const Context& ctx, LintKind kind) {
  LintOptions options;
  options.kind_mask = lint_kind_bit(kind);
  std::vector<Finding> out;
  for (auto& f : lint_network(ctx.network, options)) {
    out.push_back(make_finding(f.router, std::move(f.subject),
                               std::move(f.detail), f.line));
  }
  return out;
}

// --- consistency rules (RD020-RD023) ----------------------------------------

std::vector<Finding> run_consistency_kind(const Context& ctx,
                                          ConsistencyKind kind) {
  std::vector<Finding> out;
  for (auto& f :
       check_consistency(ctx.network, consistency_kind_bit(kind))) {
    out.push_back(make_finding(f.router_a, std::string(to_string(kind)),
                               std::move(f.detail), f.line, f.router_b));
  }
  return out;
}

// --- vulnerability rules (RD030-RD033) --------------------------------------

std::vector<Finding> rule_unfiltered_ebgp(const Context& ctx) {
  std::vector<Finding> out;
  for (const auto& c : find_unfiltered_external_connections(ctx.network)) {
    if (c.kind != UnfilteredExternalConnection::Kind::kBgpSession) continue;
    std::string what;
    if (c.missing_route_filter) what = "no inbound route filter";
    if (c.missing_packet_filter) {
      if (!what.empty()) what += " and ";
      what += "no inbound packet filter on the facing interface";
    }
    out.push_back(make_finding(c.router, c.detail,
                               "external BGP session with " + what, c.line));
  }
  return out;
}

std::vector<Finding> rule_redistribution_spof(const Context& ctx) {
  std::vector<Finding> out;
  for (const auto& pr : redistribution_redundancy(ctx.network, ctx.graph)) {
    if (!pr.single_point_of_failure()) continue;
    const auto a = instance_label(ctx.graph.set, pr.instance_a);
    const auto b = instance_label(ctx.graph.set, pr.instance_b);
    out.push_back(make_finding(
        pr.connecting_routers.front(), a + " <-> " + b,
        "all route exchange between " + a + " and " + b +
            " passes through this single router",
        0));
  }
  return out;
}

std::vector<Finding> rule_backdoor_candidate(const Context& ctx) {
  std::vector<Finding> out;
  const auto bd = detect_backdoor_candidates(ctx.network, ctx.graph);
  if (bd.groups > 1) {
    std::string reps;
    for (const auto i : bd.group_representatives) {
      if (!reps.empty()) reps += ", ";
      reps += instance_label(ctx.graph.set, i);
    }
    out.push_back(make_finding(
        model::kInvalidId, "external connectivity",
        std::to_string(bd.groups) +
            " internally disconnected instance groups each reach the "
            "external world; traffic between them can only flow through "
            "neighboring domains (" +
            reps + ")",
        0));
  }
  return out;
}

std::vector<Finding> rule_shared_static_destination(const Context& ctx) {
  const auto& network = ctx.network;
  std::vector<Finding> out;
  for (const auto& shared : shared_static_destinations(network)) {
    const auto first = shared.routers.front();
    std::size_t line = 0;
    for (const auto& route : network.routers()[first].static_routes) {
      if (route.prefix() == shared.destination) {
        line = route.line;
        break;
      }
    }
    std::string names;
    for (std::size_t i = 0; i < shared.routers.size() && i < 4; ++i) {
      if (!names.empty()) names += ", ";
      names += network.routers()[shared.routers[i]].hostname;
    }
    if (shared.routers.size() > 4) names += ", ...";
    out.push_back(make_finding(
        first, shared.destination.to_string(),
        "static routes to this destination on " +
            std::to_string(shared.routers.size()) + " routers (" + names +
            "); schedule their maintenance jointly",
        line, shared.routers[1]));
  }
  return out;
}

// --- cross-router design rules (RD040-RD044) --------------------------------

std::vector<Finding> rule_duplicate_router_id(const Context& ctx) {
  const auto& network = ctx.network;
  // router-id value -> every (router, stanza) configuring it, in router
  // order. The same value on several stanzas of ONE router is conventional
  // (OSPF and BGP commonly pin the same loopback); across routers it makes
  // adjacencies and IBGP sessions fail in hard-to-diagnose ways.
  std::map<std::uint32_t,
           std::vector<std::pair<model::RouterId, const config::RouterStanza*>>>
      owners;
  for (model::RouterId r = 0; r < network.router_count(); ++r) {
    for (const auto& stanza : network.routers()[r].router_stanzas) {
      if (stanza.router_id) {
        owners[stanza.router_id->value()].emplace_back(r, &stanza);
      }
    }
  }
  std::vector<Finding> out;
  for (const auto& [value, users] : owners) {
    const auto first = users.front().first;
    for (const auto& [r, stanza] : users) {
      if (r == first) continue;
      out.push_back(make_finding(
          r, stanza->router_id->to_string(),
          "router-id also configured on " + network.routers()[first].hostname +
              " (router " + std::string(config::to_keyword(stanza->protocol)) +
              " stanza)",
          stanza->line, first));
    }
  }
  return out;
}

/// Directed instance-pair view of process-to-process redistribution,
/// shared by RD041 and RD042.
struct RedistDirection {
  const model::RedistributionEdge* first = nullptr;   // in edge order
  const model::RedistributionEdge* first_mapped = nullptr;  // with route-map
  const model::RedistributionEdge* first_bare = nullptr;    // without
};

std::map<std::pair<std::uint32_t, std::uint32_t>, RedistDirection>
redistribution_directions(const Context& ctx) {
  const auto& instance_of = ctx.graph.set.instance_of;
  std::map<std::pair<std::uint32_t, std::uint32_t>, RedistDirection> directed;
  for (const auto& edge : ctx.network.redistribution_edges()) {
    if (edge.source_kind != model::RibKind::kProcess) continue;
    if (edge.source_process == model::kInvalidId ||
        edge.target_process == model::kInvalidId) {
      continue;
    }
    const auto a = instance_of[edge.source_process];
    const auto b = instance_of[edge.target_process];
    if (a == b) continue;
    auto& dir = directed[{a, b}];
    if (dir.first == nullptr) dir.first = &edge;
    if (edge.route_map) {
      if (dir.first_mapped == nullptr) dir.first_mapped = &edge;
    } else if (dir.first_bare == nullptr) {
      dir.first_bare = &edge;
    }
  }
  return directed;
}

std::vector<Finding> rule_one_sided_redistribution(const Context& ctx) {
  const auto directed = redistribution_directions(ctx);
  std::vector<Finding> out;
  for (const auto& [pair, dir] : directed) {
    if (directed.count({pair.second, pair.first}) != 0) continue;
    const auto a = instance_label(ctx.graph.set, pair.first);
    const auto b = instance_label(ctx.graph.set, pair.second);
    const auto& edge = *dir.first;
    out.push_back(make_finding(
        edge.router, a + " -> " + b,
        "routes are redistributed from " + a + " into " + b +
            " with no redistribution in the reverse direction; hosts in " +
            b + " stay invisible to " + a,
        redistribute_line(ctx.network, edge)));
  }
  return out;
}

std::vector<Finding> rule_asymmetric_redistribution_policy(
    const Context& ctx) {
  const auto directed = redistribution_directions(ctx);
  std::vector<Finding> out;
  for (const auto& [pair, dir] : directed) {
    if (pair.first > pair.second) continue;  // each unordered pair once
    const auto rev = directed.find({pair.second, pair.first});
    if (rev == directed.end()) continue;
    const bool forward_mapped = dir.first_mapped != nullptr;
    const bool reverse_mapped = rev->second.first_mapped != nullptr;
    if (forward_mapped == reverse_mapped) continue;
    const auto& mapped = forward_mapped ? dir : rev->second;
    const auto& bare = forward_mapped ? rev->second : dir;
    const auto mapped_from = instance_label(
        ctx.graph.set, forward_mapped ? pair.first : pair.second);
    const auto mapped_to = instance_label(
        ctx.graph.set, forward_mapped ? pair.second : pair.first);
    const auto& edge = *bare.first;
    out.push_back(make_finding(
        edge.router,
        instance_label(ctx.graph.set, pair.first) + " <-> " +
            instance_label(ctx.graph.set, pair.second),
        "redistribution " + mapped_from + " -> " + mapped_to +
            " is filtered by route-map " +
            *mapped.first_mapped->route_map +
            " but the reverse direction carries no route-map",
        redistribute_line(ctx.network, edge)));
  }
  return out;
}

std::vector<Finding> rule_ibgp_mesh_gap(const Context& ctx) {
  const auto& network = ctx.network;
  std::vector<Finding> out;
  for (const auto& s : analyze_ibgp(network, ctx.graph.set)) {
    if (s.disconnected_pairs == 0) continue;
    const auto r = s.routers.front();
    std::size_t line = 0;
    for (const auto& stanza : network.routers()[r].router_stanzas) {
      if (stanza.protocol == config::RoutingProtocol::kBgp &&
          stanza.process_id && *stanza.process_id == s.as_number) {
        line = stanza.line;
        break;
      }
    }
    out.push_back(make_finding(
        r, "AS " + std::to_string(s.as_number),
        std::to_string(s.disconnected_pairs) +
            " ordered router pair(s) in AS " + std::to_string(s.as_number) +
            " have an IBGP session path but no route propagation path (" +
            std::to_string(s.sessions) + " session(s), " +
            std::to_string(s.reflectors) +
            " route reflector(s)); plain IBGP does not re-advertise",
        line));
  }
  return out;
}

std::vector<Finding> rule_unfiltered_igp_edge(const Context& ctx) {
  const auto& network = ctx.network;
  std::vector<Finding> out;
  for (const auto& ext : network.external_igp_adjacencies()) {
    const auto& process = network.processes()[ext.process];
    const auto& config = network.routers()[process.router];
    const auto& stanza = config.router_stanzas[process.stanza_index];
    bool has_inbound_dl = false;
    for (const auto& dl : stanza.distribute_lists) {
      if (dl.inbound) {
        has_inbound_dl = true;
        break;
      }
    }
    const auto& itf = network.interfaces()[ext.interface];
    const auto& icfg = config.interfaces[itf.config_index];
    const bool missing_packet_filter = !icfg.access_group_in;
    if (has_inbound_dl && !missing_packet_filter) continue;
    const auto keyword = std::string(config::to_keyword(process.protocol));
    std::string what;
    if (!has_inbound_dl) {
      what = "no inbound distribute-list on the " + keyword + " process";
    }
    if (missing_packet_filter) {
      if (!what.empty()) what += " and ";
      what += "no inbound packet filter on the interface";
    }
    out.push_back(make_finding(
        process.router, itf.name,
        "external-facing interface runs " + keyword + " with " + what,
        icfg.line));
  }
  return out;
}

// --- symbolic rules (RD050-RD052) --------------------------------------------
//
// These reason over exact packet / route *sets* (model::HeaderPredicate)
// instead of probing one example, so they catch the shadowing the RD008
// heuristic deliberately skips ("extended shadowing needs protocol/port
// reasoning") and check operator intents against the full header space.

/// Is the ACL attached as a packet filter (access-group in/out) anywhere in
/// its own config? Decides which matching semantics RD050 applies.
bool acl_is_packet_filter(const config::RouterConfig& cfg,
                          const std::string& id) {
  for (const auto& itf : cfg.interfaces) {
    if ((itf.access_group_in && *itf.access_group_in == id) ||
        (itf.access_group_out && *itf.access_group_out == id)) {
      return true;
    }
  }
  return false;
}

/// Would the RD007/RD008 lint pass already flag clause i of this ACL? RD050
/// only reports shadows those heuristics cannot see, so the two rules never
/// double-report one clause.
bool lint_already_flags(const config::AccessList& acl, std::size_t i) {
  for (std::size_t j = 0; j < i; ++j) {
    const auto& earlier = acl.rules[j];
    const auto& later = acl.rules[i];
    if (earlier == later) return true;  // RD007 duplicate-acl-clause
    if (!earlier.extended && !later.extended && i + 1 != acl.rules.size() &&
        (earlier.any_source ||
         (!later.any_source && earlier.source.contains(later.source)))) {
      return true;  // RD008 shadowed-acl-clause
    }
  }
  return false;
}

ip::Prefix acl_rule_source_region(const config::AclRule& rule) {
  return rule.any_source ? ip::Prefix(ip::Ipv4Address(0u), 0) : rule.source;
}

std::vector<Finding> rule_shadowed_acl_entry(const Context& ctx) {
  const auto& network = ctx.network;
  std::vector<Finding> out;
  for (model::RouterId r = 0; r < network.routers().size(); ++r) {
    const auto& cfg = network.routers()[r];
    for (const auto& acl : cfg.access_lists) {
      if (acl.rules.size() < 2) continue;
      if (acl_is_packet_filter(cfg, acl.id)) {
        // Packet semantics: exact cross-product regions over
        // (src, dst, protocol, port), as acl_permits_packet evaluates them.
        model::ProtocolDomain domain;
        for (const std::size_t i : model::shadowed_clauses(acl, domain)) {
          if (lint_already_flags(acl, i)) continue;
          out.push_back(make_finding(
              r, acl.id,
              "clause " + std::to_string(i + 1) +
                  " can never match a packet (the preceding clauses cover "
                  "its entire header space)",
              acl.rules[i].line));
        }
      } else {
        // Route-filter semantics: acl_permits_route matches only the
        // route's network address against the source spec.
        std::vector<ip::Prefix> remaining{ip::Prefix(ip::Ipv4Address(0u), 0)};
        for (std::size_t i = 0; i < acl.rules.size(); ++i) {
          const ip::Prefix region = acl_rule_source_region(acl.rules[i]);
          bool matchable = false;
          for (const auto& piece : remaining) {
            if (piece.overlaps(region)) {
              matchable = true;
              break;
            }
          }
          if (!matchable && !lint_already_flags(acl, i)) {
            out.push_back(make_finding(
                r, acl.id,
                "clause " + std::to_string(i + 1) +
                    " can never match a route (the preceding clauses cover "
                    "its source space)",
                acl.rules[i].line));
          }
          model::subtract_prefix(remaining, region);
        }
      }
    }
  }
  return out;
}

// RD051 lowers route space onto the same predicate algebra: a route
// (network address, prefix length, tag) becomes a header point with
// source = the address, port = the length (an integer in [0, 32]), and
// protocols = one bit per distinct tag value (bitmask position interned via
// a ProtocolDomain reused as a small-integer-set interner; bit 0 stays the
// "any other tag" wildcard a tag-less match keeps). The model covers a
// superspace of real routes (lengths unaligned with addresses included), so
// an empty or covered region is a sound "dead" verdict.

constexpr std::uint32_t kMaxPrefixLen = 32;

model::HeaderPredicate acl_route_region(const config::AccessList& acl) {
  model::HeaderPredicate permitted;
  std::vector<ip::Prefix> remaining{ip::Prefix(ip::Ipv4Address(0u), 0)};
  for (const auto& rule : acl.rules) {
    const ip::Prefix region = acl_rule_source_region(rule);
    if (rule.action == config::FilterAction::kPermit) {
      for (const auto& piece : remaining) {
        std::optional<ip::Prefix> hit;
        if (piece.contains(region)) {
          hit = region;
        } else if (region.contains(piece)) {
          hit = piece;
        }
        if (!hit) continue;
        model::HeaderAtom atom;
        atom.source = *hit;
        atom.port_hi = kMaxPrefixLen;
        permitted.unite(atom);
      }
    }
    model::subtract_prefix(remaining, region);
    if (remaining.empty()) break;
  }
  permitted.normalize();
  return permitted;
}

model::HeaderPredicate prefix_list_region(const config::PrefixList& pl) {
  model::HeaderPredicate permitted;
  model::HeaderAtom everything;
  everything.port_hi = kMaxPrefixLen;
  auto remaining = model::HeaderPredicate::of(everything);
  for (const auto& entry : pl.entries) {
    // Mirror of prefix_list_permits_route: containment forces
    // length >= entry length; ge/le bound it further; no bounds means
    // exact length.
    model::HeaderAtom region;
    region.source = entry.prefix;
    const auto entry_len = static_cast<std::uint32_t>(entry.prefix.length());
    if (entry.ge || entry.le) {
      region.port_lo = entry_len;
      if (entry.ge && *entry.ge > 0 &&
          static_cast<std::uint32_t>(*entry.ge) > entry_len) {
        region.port_lo = static_cast<std::uint32_t>(*entry.ge);
      }
      region.port_hi =
          entry.le && *entry.le >= 0 ? static_cast<std::uint32_t>(*entry.le)
                                     : kMaxPrefixLen;
    } else {
      region.port_lo = region.port_hi = entry_len;
    }
    if (region.empty()) continue;  // le < ge: matches nothing, blocks nothing
    if (entry.action == config::FilterAction::kPermit) {
      permitted.unite(remaining.intersect(region));
    }
    remaining = remaining.subtract(region);
    remaining.normalize();
    if (remaining.is_empty()) break;
  }
  permitted.normalize();
  return permitted;
}

model::HeaderPredicate route_map_clause_region(
    const config::RouteMapClause& clause, const config::RouterConfig& cfg,
    model::ProtocolDomain& tags) {
  model::HeaderAtom base;
  base.port_hi = kMaxPrefixLen;
  if (clause.match_tag) {
    base.protocols = tags.clause_mask(std::to_string(*clause.match_tag));
  }
  auto region = model::HeaderPredicate::of(base);
  // AND across match kinds, OR across the lists of one kind; unresolvable
  // references contribute nothing — exactly route_map_evaluate. A present
  // match kind whose every list is unresolvable (or matches nothing) makes
  // the clause unsatisfiable. "match as-path" carries no route-space
  // constraint in the static model and is treated as satisfied.
  if (!clause.match_ip_address_acls.empty()) {
    model::HeaderPredicate any;
    for (const auto& acl_id : clause.match_ip_address_acls) {
      if (const auto* acl = cfg.find_access_list(acl_id)) {
        any.unite(acl_route_region(*acl));
      }
    }
    region = region.intersect(any);
  }
  if (!clause.match_prefix_lists.empty()) {
    model::HeaderPredicate any;
    for (const auto& pl_name : clause.match_prefix_lists) {
      if (const auto* pl = cfg.find_prefix_list(pl_name)) {
        any.unite(prefix_list_region(*pl));
      }
    }
    region = region.intersect(any);
  }
  region.normalize();
  return region;
}

std::vector<Finding> rule_dead_route_map_clause(const Context& ctx) {
  const auto& network = ctx.network;
  std::vector<Finding> out;
  for (model::RouterId r = 0; r < network.routers().size(); ++r) {
    const auto& cfg = network.routers()[r];
    for (const auto& rm : cfg.route_maps) {
      model::ProtocolDomain tags;
      model::HeaderPredicate covered;
      for (const auto& clause : rm.clauses) {
        const auto region = route_map_clause_region(clause, cfg, tags);
        const std::string label = "clause " + std::to_string(clause.sequence);
        if (region.is_empty()) {
          out.push_back(make_finding(
              r, rm.name,
              label + " can never match: its match conditions are "
                      "unsatisfiable (no referenced list matches any route)",
              clause.line));
        } else if (covered.covers(region)) {
          out.push_back(make_finding(
              r, rm.name,
              label + " can never be reached: earlier clauses match every "
                      "route it matches",
              clause.line));
        }
        covered.unite(region);
        covered.normalize();
      }
    }
  }
  return out;
}

std::vector<Finding> rule_intent_violation(const Context& ctx) {
  std::vector<Finding> out;
  for (const auto& outcome : ctx.intents()) {
    if (outcome.holds) continue;
    std::string detail;
    if (outcome.intent.expect_reachable) {
      detail = "allow intent violated: packet " +
               (outcome.witness ? outcome.witness->describe()
                                : std::string("?")) +
               " cannot get through";
    } else {
      detail = "deny intent violated: packet " +
               (outcome.witness ? outcome.witness->describe()
                                : std::string("?")) +
               " gets through";
    }
    out.push_back(make_finding(outcome.intent.router,
                               outcome.intent.describe(), std::move(detail),
                               outcome.intent.line));
  }
  return out;
}

// --- the default registry ---------------------------------------------------

struct LintRuleSpec {
  LintKind kind;
  const char* id;
  const char* name;
  Severity severity;
  const char* description;
  const char* paper;
};

constexpr LintRuleSpec kLintRules[] = {
    {LintKind::kMultiPolicyFilter, "RD001", "multi-policy-filter",
     Severity::kWarning,
     "Packet filter mixes several policies in one list (multiple protocols, "
     "interleaved permit/deny)",
     "§5.3, §8.1"},
    {LintKind::kUnusedAccessList, "RD002", "unused-access-list",
     Severity::kInfo, "Access list is defined but never referenced",
     "§8.2"},
    {LintKind::kUnusedRouteMap, "RD003", "unused-route-map", Severity::kInfo,
     "Route-map is defined but never referenced", "§8.2"},
    {LintKind::kUndefinedAclReference, "RD004", "undefined-acl-reference",
     Severity::kError,
     "Referenced access list is never defined; on IOS the reference "
     "silently matches everything",
     "§5.3, §8.1"},
    {LintKind::kUndefinedRouteMapRef, "RD005", "undefined-route-map-reference",
     Severity::kError, "Referenced route-map is never defined",
     "§5.3, §8.1"},
    {LintKind::kUndefinedPrefixListRef, "RD006",
     "undefined-prefix-list-reference", Severity::kError,
     "Referenced prefix-list is never defined", "§5.3, §8.1"},
    {LintKind::kDuplicateAclClause, "RD007", "duplicate-acl-clause",
     Severity::kWarning, "Identical clause appears twice in one access list",
     "§5.3"},
    {LintKind::kShadowedAclClause, "RD008", "shadowed-acl-clause",
     Severity::kWarning,
     "Access-list clause can never match; an earlier clause covers it",
     "§5.3"},
    {LintKind::kRedundantStaticRoute, "RD009", "redundant-static-route",
     Severity::kInfo, "Static route duplicates a directly connected subnet",
     "§3.3"},
    {LintKind::kNoncanonicalNetwork, "RD010", "noncanonical-network-statement",
     Severity::kWarning,
     "Network statement has host bits set under its mask", "§2.2"},
};

struct ConsistencyRuleSpec {
  ConsistencyKind kind;
  const char* id;
  Severity severity;
  const char* description;
  const char* paper;
};

constexpr ConsistencyRuleSpec kConsistencyRules[] = {
    {ConsistencyKind::kDuplicateAddress, "RD020", Severity::kError,
     "The same IP address is configured on two interfaces", "§2.1"},
    {ConsistencyKind::kMaskMismatch, "RD021", Severity::kWarning,
     "Link subnets overlap with different masks (interfaces on one wire "
     "disagree about its size)",
     "§2.1"},
    {ConsistencyKind::kOneSidedBgpSession, "RD022", Severity::kError,
     "Internal BGP session is configured on one endpoint only",
     "§2.3, §8.1"},
    {ConsistencyKind::kAsnMismatch, "RD023", Severity::kError,
     "BGP neighbor statement names an AS the owning router does not run",
     "§2.3"},
};

}  // namespace

RuleEngine RuleEngine::with_default_rules() {
  RuleEngine engine;
  for (const auto& spec : kLintRules) {
    const LintKind kind = spec.kind;
    engine.add({spec.id, spec.name, "lint", spec.severity, spec.description,
                spec.paper},
               [kind](const Context& ctx) {
                 return run_lint_kind(ctx, kind);
               });
  }
  for (const auto& spec : kConsistencyRules) {
    const ConsistencyKind kind = spec.kind;
    engine.add({spec.id, std::string(to_string(kind)), "consistency",
                spec.severity, spec.description, spec.paper},
               [kind](const Context& ctx) {
                 return run_consistency_kind(ctx, kind);
               });
  }
  engine.add({"RD030", "unfiltered-external-bgp-session", "vulnerability",
              Severity::kWarning,
              "External BGP session has neither an inbound route filter nor "
              "an inbound packet filter",
              "§8.1"},
             rule_unfiltered_ebgp);
  engine.add({"RD031", "redistribution-single-point-of-failure",
              "vulnerability", Severity::kWarning,
              "All route exchange between two routing instances passes "
              "through one router",
              "§5.1, §8.1"},
             rule_redistribution_spof);
  engine.add({"RD032", "backdoor-route-candidate", "vulnerability",
              Severity::kInfo,
              "Internally disconnected instance groups each reach the "
              "external world; backdoor routes may exist through neighbors",
              "§8.2"},
             rule_backdoor_candidate);
  engine.add({"RD033", "shared-static-destination", "vulnerability",
              Severity::kInfo,
              "Several routers carry static routes to the same destination",
              "§8.1"},
             rule_shared_static_destination);
  engine.add({"RD040", "duplicate-router-id", "cross-router",
              Severity::kError,
              "The same router-id is configured on two different routers",
              "§2.2"},
             rule_duplicate_router_id);
  engine.add({"RD041", "one-sided-redistribution", "cross-router",
              Severity::kWarning,
              "Routes are redistributed between two instances in one "
              "direction only",
              "§5.1"},
             rule_one_sided_redistribution);
  engine.add({"RD042", "asymmetric-redistribution-policy", "cross-router",
              Severity::kWarning,
              "Mutual redistribution between two instances carries a "
              "route-map in one direction only",
              "§5.1, §8.1"},
             rule_asymmetric_redistribution_policy);
  engine.add({"RD043", "ibgp-mesh-gap", "cross-router", Severity::kError,
              "Router pairs inside one AS have no IBGP route propagation "
              "path",
              "§5.2, §6.1"},
             rule_ibgp_mesh_gap);
  engine.add({"RD044", "unfiltered-igp-edge-interface", "cross-router",
              Severity::kWarning,
              "External-facing interface runs an IGP without inbound route "
              "or packet filtering",
              "§5.2, §8.1"},
             rule_unfiltered_igp_edge);
  engine.add({"RD050", "shadowed-acl-entry", "symbolic", Severity::kInfo,
              "ACL clause can never match: the preceding clauses cover its "
              "entire header (or route source) space",
              "§5.3, §8.1"},
             rule_shadowed_acl_entry);
  engine.add({"RD051", "dead-route-map-clause", "symbolic", Severity::kInfo,
              "Route-map clause can never fire: unsatisfiable match "
              "conditions, or earlier clauses match every route it matches",
              "§5.1, §8.1"},
             rule_dead_route_map_clause);
  engine.add({"RD052", "intent-violation", "symbolic", Severity::kError,
              "A declared rd-intent assertion does not hold in the computed "
              "header space",
              "§6.2, §8.1"},
             rule_intent_violation);
  engine.add({"RD060", "redistribution-loop", "dataflow", Severity::kError,
              "An instance's routes can transit a filter-permitting "
              "multi-router cycle and re-enter their origin with a winning "
              "administrative distance",
              "§2.4, §6.1"},
             RedistributionSafety::redistribution_loop);
  engine.add({"RD061", "metric-loss-at-boundary", "dataflow",
              Severity::kWarning,
              "Redistribution into a protocol with a different metric "
              "algebra carries no metric mapping",
              "§2.4, §5.1"},
             RedistributionSafety::metric_loss);
  engine.add({"RD062", "administrative-distance-inversion", "dataflow",
              Severity::kWarning,
              "A redistributed copy of an instance's routes beats the "
              "native route on a router hosting both instances",
              "§2.4, §6.1"},
             RedistributionSafety::distance_inversion);
  engine.add({"RD063", "mutual-redistribution-without-filter", "dataflow",
              Severity::kWarning,
              "Mutual redistribution between two instances where one "
              "direction cannot deny any route",
              "§5.1, §6.1"},
             RedistributionSafety::unfiltered_mutual);
  engine.add({"RD064", "single-point-redistribution", "dataflow",
              Severity::kWarning,
              "Two multi-router instances exchange routes through exactly "
              "one router, with no alternate path between them",
              "§6, §8.1"},
             RedistributionSafety::single_point);
  return engine;
}

void RuleEngine::add(RuleInfo info, RuleFn fn) {
  rules_.push_back({std::move(info), std::move(fn)});
}

const RuleInfo* RuleEngine::find(std::string_view id) const noexcept {
  for (const auto& rule : rules_) {
    if (rule.info.id == id) return &rule.info;
  }
  return nullptr;
}

RuleEngine::Result RuleEngine::run(const model::Network& network,
                                   util::ThreadPool& pool) const {
  const auto graph = graph::InstanceGraph::build(network);
  return run(network, graph, pool);
}

RuleEngine::Result RuleEngine::run(const model::Network& network,
                                   const graph::InstanceGraph& graph,
                                   util::ThreadPool& pool) const {
  return run(Context(network, graph), pool);
}

RuleEngine::Result RuleEngine::run(const Context& ctx,
                                   util::ThreadPool& pool) const {
  struct PerRule {
    std::vector<Finding> findings;
    double millis = 0.0;
  };
  std::vector<PerRule> per_rule(rules_.size());
  const auto run_one = [&](std::size_t i) {
    // The per-rule span (name = the stable RDnnn id) supersedes the ad-hoc
    // `--timings` channel: a trace shows the same per-rule wall times on
    // the thread that actually ran the rule. The steady_clock timing below
    // stays for Result::timings compatibility.
    obs::Span span(rules_[i].info.id, "rules");
    const auto start = std::chrono::steady_clock::now();
    per_rule[i].findings = rules_[i].fn(ctx);
    per_rule[i].millis =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    span.arg("findings", per_rule[i].findings.size());
  };
  pool.run_indexed(rules_.size(), run_one);

  // Merge in registration order: the output is byte-identical at every pool
  // size no matter how rules were scheduled.
  Result result;
  result.timings.reserve(rules_.size());
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const auto& info = rules_[i].info;
    result.timings.push_back(
        {info.id, per_rule[i].millis, per_rule[i].findings.size()});
    for (auto& f : per_rule[i].findings) {
      f.rule_id = info.id;
      f.severity = info.severity;
      if (f.router != model::kInvalidId) {
        const auto& rc = ctx.network.routers()[f.router];
        f.router_name = rc.hostname;
        f.where.file = rc.source_file.empty() ? rc.hostname : rc.source_file;
        if (std::binary_search(rc.lint_suppressions.begin(),
                               rc.lint_suppressions.end(), info.id)) {
          ++result.suppressed;
          continue;
        }
      }
      if (f.router_b != model::kInvalidId) {
        f.router_b_name = ctx.network.routers()[f.router_b].hostname;
      }
      switch (f.severity) {
        case Severity::kError:
          ++result.errors;
          break;
        case Severity::kWarning:
          ++result.warnings;
          break;
        case Severity::kInfo:
          ++result.infos;
          break;
      }
      result.findings.push_back(std::move(f));
    }
  }
  obs::counter("rules.runs").add();
  obs::counter("rules.evaluated").add(rules_.size());
  obs::counter("rules.findings").add(result.findings.size());
  obs::counter("rules.suppressed").add(result.suppressed);
  return result;
}

std::string findings_to_json(const RuleEngine& engine,
                             const RuleEngine::Result& result,
                             std::string_view network_name, int indent) {
  auto root = util::Json::object();
  root.set("tool", "rdlint");
  root.set("network", std::string(network_name));
  auto summary = util::Json::object();
  summary.set("total", result.findings.size());
  summary.set("errors", result.errors);
  summary.set("warnings", result.warnings);
  summary.set("info", result.infos);
  summary.set("suppressed", result.suppressed);
  root.set("summary", std::move(summary));
  auto findings = util::Json::array();
  for (const auto& f : result.findings) {
    auto j = util::Json::object();
    j.set("rule", f.rule_id);
    const auto* info = engine.find(f.rule_id);
    if (info != nullptr) j.set("name", info->name);
    j.set("severity", std::string(severity_name(f.severity)));
    if (!f.router_name.empty()) j.set("router", f.router_name);
    if (!f.router_b_name.empty()) j.set("router_b", f.router_b_name);
    if (!f.where.file.empty()) j.set("file", f.where.file);
    if (f.where.line != 0) j.set("line", f.where.line);
    j.set("subject", f.subject);
    j.set("detail", f.detail);
    j.set("fingerprint", finding_fingerprint(f));
    findings.push_back(std::move(j));
  }
  root.set("findings", std::move(findings));
  return root.dump(indent);
}

std::string findings_to_sarif(const RuleEngine& engine,
                              const RuleEngine::Result& result, int indent) {
  auto driver = util::Json::object();
  driver.set("name", "rdlint");
  driver.set("informationUri",
             "https://dl.acm.org/doi/10.1145/1015467.1015472");
  auto rules = util::Json::array();
  std::map<std::string, std::size_t> rule_index;
  for (const auto& rule : engine.rules()) {
    rule_index.emplace(rule.info.id, rule_index.size());
    auto rj = util::Json::object();
    rj.set("id", rule.info.id);
    rj.set("name", rule.info.name);
    auto text = util::Json::object();
    text.set("text", rule.info.description);
    rj.set("shortDescription", std::move(text));
    auto configuration = util::Json::object();
    configuration.set("level",
                      std::string(severity_sarif_level(rule.info.severity)));
    rj.set("defaultConfiguration", std::move(configuration));
    auto properties = util::Json::object();
    properties.set("category", rule.info.category);
    properties.set("paper", rule.info.paper);
    rj.set("properties", std::move(properties));
    rules.push_back(std::move(rj));
  }
  driver.set("rules", std::move(rules));
  auto tool = util::Json::object();
  tool.set("driver", std::move(driver));

  auto results = util::Json::array();
  for (const auto& f : result.findings) {
    auto rj = util::Json::object();
    rj.set("ruleId", f.rule_id);
    const auto it = rule_index.find(f.rule_id);
    if (it != rule_index.end()) rj.set("ruleIndex", it->second);
    rj.set("level", std::string(severity_sarif_level(f.severity)));
    auto message = util::Json::object();
    std::string text;
    if (!f.router_name.empty()) text = f.router_name + ": ";
    if (!f.subject.empty()) text += f.subject + ": ";
    text += f.detail;
    message.set("text", std::move(text));
    rj.set("message", std::move(message));
    if (!f.where.file.empty()) {
      auto artifact = util::Json::object();
      artifact.set("uri", f.where.file);
      auto physical = util::Json::object();
      physical.set("artifactLocation", std::move(artifact));
      if (f.where.line != 0) {
        auto region = util::Json::object();
        region.set("startLine", f.where.line);
        physical.set("region", std::move(region));
      }
      auto location = util::Json::object();
      location.set("physicalLocation", std::move(physical));
      auto locations = util::Json::array();
      locations.push_back(std::move(location));
      rj.set("locations", std::move(locations));
    }
    auto fingerprints = util::Json::object();
    fingerprints.set("rdlint/v1", finding_fingerprint(f));
    rj.set("partialFingerprints", std::move(fingerprints));
    results.push_back(std::move(rj));
  }

  auto run = util::Json::object();
  run.set("tool", std::move(tool));
  run.set("results", std::move(results));
  auto runs = util::Json::array();
  runs.push_back(std::move(run));
  auto root = util::Json::object();
  root.set("$schema", "https://json.schemastore.org/sarif-2.1.0.json");
  root.set("version", "2.1.0");
  root.set("runs", std::move(runs));
  return root.dump(indent);
}

std::optional<std::vector<std::string>> baseline_fingerprints(
    std::string_view json_text) {
  const auto doc = util::Json::parse(json_text);
  if (!doc) return std::nullopt;
  const auto* findings = doc->get("findings");
  if (findings == nullptr || !findings->is_array()) return std::nullopt;
  std::vector<std::string> out;
  out.reserve(findings->size());
  for (std::size_t i = 0; i < findings->size(); ++i) {
    const auto* finding = findings->at(i);
    const auto* fp = finding ? finding->get("fingerprint") : nullptr;
    const auto* s = fp ? fp->if_string() : nullptr;
    if (s == nullptr) return std::nullopt;
    out.push_back(*s);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

BaselineDelta diff_against_baseline(const std::vector<Finding>& current,
                                    const std::vector<std::string>& baseline) {
  const std::set<std::string> base(baseline.begin(), baseline.end());
  std::set<std::string> seen;
  BaselineDelta delta;
  for (const auto& f : current) {
    auto fp = finding_fingerprint(f);
    (base.count(fp) != 0 ? delta.unchanged : delta.new_findings).push_back(f);
    seen.insert(std::move(fp));
  }
  for (const auto& fp : base) {
    if (seen.count(fp) == 0) delta.fixed.push_back(fp);
  }
  return delta;
}

}  // namespace rd::analysis
