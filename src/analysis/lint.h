#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/network.h"

namespace rd::analysis {

/// Configuration lint (paper §5.3 / §8.1): the paper's detailed look at
/// packet filters "reveals weaknesses in the Cisco IOS language that can
/// make configuring routers more error prone" — e.g. a 47-clause filter
/// defining several policies simultaneously because IOS allows only one
/// filter per interface. These checks surface such error-prone or stale
/// constructs from the configuration state alone.
enum class LintKind : std::uint8_t {
  kMultiPolicyFilter,     // one huge filter mixing several concerns
  kUnusedAccessList,      // defined, never referenced
  kUnusedRouteMap,        // defined, never referenced
  kUndefinedAclReference, // referenced, never defined
  kUndefinedRouteMapRef,  // referenced, never defined
  kUndefinedPrefixListRef,
  kDuplicateAclClause,    // identical clause appears twice in one list
  kShadowedAclClause,     // clause can never match (earlier clause covers it)
  kRedundantStaticRoute,  // static duplicating a connected subnet
  kNoncanonicalNetwork,   // network statement with host bits set in the mask
};

std::string_view to_string(LintKind kind) noexcept;

struct LintFinding {
  LintKind kind = LintKind::kUnusedAccessList;
  model::RouterId router = model::kInvalidId;
  std::string subject;  // ACL id / route-map name / prefix
  std::string detail;
  /// 1-based line in the router's source config (0 = unknown). For dangling
  /// references this is the first referencing line; otherwise the line of
  /// the flagged construct.
  std::size_t line = 0;
};

/// Bit for one LintKind in LintOptions::kind_mask.
constexpr std::uint32_t lint_kind_bit(LintKind kind) noexcept {
  return 1u << static_cast<std::uint32_t>(kind);
}

struct LintOptions {
  /// Which checks to run (one bit per LintKind, default all). The rule
  /// engine runs each kind as its own rule; the mask keeps a single-kind
  /// run from paying for the other nine checks.
  std::uint32_t kind_mask = 0xFFFFFFFFu;

  bool enabled(LintKind kind) const noexcept {
    return (kind_mask & lint_kind_bit(kind)) != 0;
  }
};

std::vector<LintFinding> lint_network(const model::Network& network,
                                      const LintOptions& options);
inline std::vector<LintFinding> lint_network(const model::Network& network) {
  return lint_network(network, LintOptions{});
}

}  // namespace rd::analysis
