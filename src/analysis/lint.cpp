#include "analysis/lint.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

namespace rd::analysis {

std::string_view to_string(LintKind kind) noexcept {
  switch (kind) {
    case LintKind::kMultiPolicyFilter:
      return "multi-policy-filter";
    case LintKind::kUnusedAccessList:
      return "unused-access-list";
    case LintKind::kUnusedRouteMap:
      return "unused-route-map";
    case LintKind::kUndefinedAclReference:
      return "undefined-acl-reference";
    case LintKind::kUndefinedRouteMapRef:
      return "undefined-route-map-reference";
    case LintKind::kUndefinedPrefixListRef:
      return "undefined-prefix-list-reference";
    case LintKind::kDuplicateAclClause:
      return "duplicate-acl-clause";
    case LintKind::kShadowedAclClause:
      return "shadowed-acl-clause";
    case LintKind::kRedundantStaticRoute:
      return "redundant-static-route";
    case LintKind::kNoncanonicalNetwork:
      return "noncanonical-network-statement";
  }
  return "?";
}

namespace {

/// A filter with at least this many clauses that mixes several protocols
/// and interleaves permit/deny is flagged as multi-policy.
constexpr std::size_t kMultiPolicyClauseThreshold = 30;

/// Every ACL / route-map / prefix-list name a config references, mapped to
/// the first referencing source line (0 when the reference site carries no
/// line, e.g. synthesized configs).
struct References {
  std::map<std::string, std::size_t> acls;
  std::map<std::string, std::size_t> route_maps;
  std::map<std::string, std::size_t> prefix_lists;
};

References collect_references(const config::RouterConfig& cfg) {
  References refs;
  for (const auto& itf : cfg.interfaces) {
    if (itf.access_group_in) refs.acls.try_emplace(*itf.access_group_in,
                                                   itf.line);
    if (itf.access_group_out) refs.acls.try_emplace(*itf.access_group_out,
                                                    itf.line);
  }
  for (const auto& stanza : cfg.router_stanzas) {
    for (const auto& dl : stanza.distribute_lists) {
      refs.acls.try_emplace(dl.acl, stanza.line);
    }
    for (const auto& redist : stanza.redistributes) {
      if (redist.route_map) {
        refs.route_maps.try_emplace(*redist.route_map, redist.line);
      }
    }
    for (const auto& nbr : stanza.neighbors) {
      if (nbr.distribute_list_in) {
        refs.acls.try_emplace(*nbr.distribute_list_in, nbr.line);
      }
      if (nbr.distribute_list_out) {
        refs.acls.try_emplace(*nbr.distribute_list_out, nbr.line);
      }
      if (nbr.route_map_in) {
        refs.route_maps.try_emplace(*nbr.route_map_in, nbr.line);
      }
      if (nbr.route_map_out) {
        refs.route_maps.try_emplace(*nbr.route_map_out, nbr.line);
      }
      if (nbr.prefix_list_in) {
        refs.prefix_lists.try_emplace(*nbr.prefix_list_in, nbr.line);
      }
      if (nbr.prefix_list_out) {
        refs.prefix_lists.try_emplace(*nbr.prefix_list_out, nbr.line);
      }
    }
  }
  for (const auto& rm : cfg.route_maps) {
    for (const auto& clause : rm.clauses) {
      for (const auto& acl : clause.match_ip_address_acls) {
        refs.acls.try_emplace(acl, clause.line);
      }
      for (const auto& pl : clause.match_prefix_lists) {
        refs.prefix_lists.try_emplace(pl, clause.line);
      }
    }
  }
  return refs;
}

/// Does an earlier clause's source spec fully cover a later clause's?
bool clause_shadows(const config::AclRule& earlier,
                    const config::AclRule& later) {
  if (earlier.extended || later.extended) {
    return false;  // extended shadowing needs protocol/port reasoning; skip
  }
  if (earlier.any_source) return true;
  if (later.any_source) return false;
  return earlier.source.contains(later.source);
}

/// A crude concern count for multi-policy detection: distinct protocols
/// plus whether address-only and protocol rules are mixed.
std::size_t concern_count(const config::AccessList& acl) {
  std::set<std::string> protocols;
  bool has_standard = false;
  for (const auto& rule : acl.rules) {
    if (rule.extended) {
      protocols.insert(rule.protocol);
    } else {
      has_standard = true;
    }
  }
  return protocols.size() + (has_standard ? 1 : 0);
}

}  // namespace

std::vector<LintFinding> lint_network(const model::Network& network,
                                      const LintOptions& options) {
  std::vector<LintFinding> findings;

  const bool needs_references =
      options.enabled(LintKind::kUnusedAccessList) ||
      options.enabled(LintKind::kUnusedRouteMap) ||
      options.enabled(LintKind::kUndefinedAclReference) ||
      options.enabled(LintKind::kUndefinedRouteMapRef) ||
      options.enabled(LintKind::kUndefinedPrefixListRef);

  for (model::RouterId r = 0; r < network.router_count(); ++r) {
    const auto& cfg = network.routers()[r];
    const References refs =
        needs_references ? collect_references(cfg) : References{};

    // Unused definitions. The conventional "99"-style management ACLs are
    // often intentionally unapplied, but the paper's inventory task still
    // wants them surfaced.
    if (options.enabled(LintKind::kUnusedAccessList)) {
      for (const auto& acl : cfg.access_lists) {
        if (!refs.acls.contains(acl.id)) {
          findings.push_back({LintKind::kUnusedAccessList, r, acl.id,
                              std::to_string(acl.rules.size()) + " clauses",
                              acl.line});
        }
      }
    }
    if (options.enabled(LintKind::kUnusedRouteMap)) {
      for (const auto& rm : cfg.route_maps) {
        if (!refs.route_maps.contains(rm.name)) {
          const std::size_t line =
              rm.clauses.empty() ? 0 : rm.clauses.front().line;
          findings.push_back({LintKind::kUnusedRouteMap, r, rm.name, "",
                              line});
        }
      }
    }

    // Dangling references, anchored at the first referencing line.
    if (options.enabled(LintKind::kUndefinedAclReference)) {
      for (const auto& [acl_id, line] : refs.acls) {
        if (cfg.find_access_list(acl_id) == nullptr) {
          findings.push_back({LintKind::kUndefinedAclReference, r, acl_id,
                              "referenced but not defined (permits "
                              "everything)",
                              line});
        }
      }
    }
    if (options.enabled(LintKind::kUndefinedRouteMapRef)) {
      for (const auto& [rm_name, line] : refs.route_maps) {
        if (cfg.find_route_map(rm_name) == nullptr) {
          findings.push_back(
              {LintKind::kUndefinedRouteMapRef, r, rm_name, "", line});
        }
      }
    }
    if (options.enabled(LintKind::kUndefinedPrefixListRef)) {
      for (const auto& [pl_name, line] : refs.prefix_lists) {
        if (cfg.find_prefix_list(pl_name) == nullptr) {
          findings.push_back(
              {LintKind::kUndefinedPrefixListRef, r, pl_name, "", line});
        }
      }
    }

    // Clause-level checks (one pass per ACL, findings interleaved in the
    // original order: multi-policy first, then per-clause duplicates and
    // shadows).
    if (options.enabled(LintKind::kMultiPolicyFilter) ||
        options.enabled(LintKind::kDuplicateAclClause) ||
        options.enabled(LintKind::kShadowedAclClause)) {
      for (const auto& acl : cfg.access_lists) {
        if (options.enabled(LintKind::kMultiPolicyFilter) &&
            acl.rules.size() >= kMultiPolicyClauseThreshold &&
            concern_count(acl) >= 3) {
          findings.push_back(
              {LintKind::kMultiPolicyFilter, r, acl.id,
               std::to_string(acl.rules.size()) + " clauses spanning " +
                   std::to_string(concern_count(acl)) +
                   " concerns (split per policy)",
               acl.line});
        }
        for (std::size_t i = 0; i < acl.rules.size(); ++i) {
          for (std::size_t j = 0; j < i; ++j) {
            if (acl.rules[j] == acl.rules[i]) {
              if (options.enabled(LintKind::kDuplicateAclClause)) {
                findings.push_back({LintKind::kDuplicateAclClause, r, acl.id,
                                    "clause " + std::to_string(i + 1) +
                                        " duplicates clause " +
                                        std::to_string(j + 1),
                                    acl.rules[i].line});
              }
              break;
            }
            if (clause_shadows(acl.rules[j], acl.rules[i]) &&
                i + 1 != acl.rules.size()) {
              if (options.enabled(LintKind::kShadowedAclClause)) {
                findings.push_back({LintKind::kShadowedAclClause, r, acl.id,
                                    "clause " + std::to_string(i + 1) +
                                        " can never match (shadowed by "
                                        "clause " +
                                        std::to_string(j + 1) + ")",
                                    acl.rules[i].line});
              }
              break;
            }
          }
        }
      }
    }

    // Non-canonical network statements: the address has host bits set below
    // the mask, so IOS silently canonicalizes it ("network 10.0.0.5 /8"
    // covers 10.0.0.0/8). Prefix::parse would hide the sloppiness the same
    // way; the strict constructor detects it.
    if (options.enabled(LintKind::kNoncanonicalNetwork)) {
      for (const auto& stanza : cfg.router_stanzas) {
        for (const auto& ns : stanza.networks) {
          if (ip::Prefix::make_strict(ns.address, ns.mask.length())) continue;
          const ip::Prefix canonical(ns.address, ns.mask.length());
          findings.push_back(
              {LintKind::kNoncanonicalNetwork, r,
               ns.address.to_string() + "/" +
                   std::to_string(ns.mask.length()),
               std::string(config::to_keyword(stanza.protocol)) +
                   " network statement has host bits set; matches " +
                   canonical.to_string(),
               ns.line});
        }
      }
    }

    // Static routes duplicating connected subnets.
    if (options.enabled(LintKind::kRedundantStaticRoute)) {
      for (const auto& route : cfg.static_routes) {
        for (const model::InterfaceId i : network.router_interfaces(r)) {
          const auto& itf = network.interfaces()[i];
          if (itf.subnet && *itf.subnet == route.prefix()) {
            findings.push_back({LintKind::kRedundantStaticRoute, r,
                                route.prefix().to_string(),
                                "duplicates connected subnet on " + itf.name,
                                route.line});
          }
        }
      }
    }
  }
  return findings;
}

}  // namespace rd::analysis
