#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analysis/propagation.h"
#include "graph/instances.h"
#include "ip/prefix_trie.h"
#include "model/network.h"
#include "model/policy.h"

namespace rd::analysis {

/// Instance-level route-propagation analysis (paper §6.2; a simplified form
/// of the Xie et al. static reachability analysis the paper builds on).
///
/// Rather than modeling per-router route selection, routes are propagated
/// over the routing-instance graph with every configured policy applied:
/// route-maps on redistribution, distribute-lists and route-maps on BGP
/// sessions. The external world is modeled as offering a default route plus
/// every prefix the network's own policies mention (a finite universe that
/// exercises every filter clause).
///
/// The fixpoint is `prop::run_semi_naive` (DESIGN.md §9): delta-driven
/// propagation over an interned route domain, each edge evaluating each
/// source route once through policies compiled once per run
/// (`model::PolicyCompiler`). The propagation rules are monotone (routes
/// are only ever added), so the fixpoint is confluent: the full-rescan
/// oracle in tests/fixpoint_reference.h, which the differential tests run
/// on the same `prop::Problem`, and any edge-processing order produce
/// identical route sets.
class ReachabilityAnalysis {
 public:
  struct Options {
    /// Extra prefixes the external world advertises, beyond the default
    /// route and policy-mentioned prefixes.
    std::vector<ip::Prefix> external_prefixes;
    std::size_t max_iterations = 64;  // fixpoint guard
    /// When set, only these external endpoints inject routes. Endpoint
    /// indices count the network's external BGP sessions first (in
    /// bgp_sessions() order, externals only), then the external IGP
    /// adjacencies. Used by the egress analysis to attribute external
    /// routes to entry points. Need not be sorted; the engine sorts a copy.
    std::optional<std::vector<std::size_t>> active_external_endpoints;
  };

  static ReachabilityAnalysis run(const model::Network& network,
                                  const graph::InstanceSet& instances,
                                  const Options& options);
  static ReachabilityAnalysis run(const model::Network& network,
                                  const graph::InstanceSet& instances) {
    return run(network, instances, Options{});
  }

  /// The Problem `run` evaluates, given the external offers: `instances`'
  /// rules discovered under the options' iteration guard and active
  /// endpoints. `run` offers `prop::external_universe(network,
  /// options.external_prefixes)`; the what-if sweep computes that once, on
  /// the intact network, and offers it to every scenario's partition.
  static prop::Problem problem(const model::Network& network,
                               const graph::InstanceSet& instances,
                               const Options& options,
                               const std::vector<ip::Prefix>& universe);

  /// The figures a what-if scenario reads from the fixpoint, each equal to
  /// what `run` reports when the Problem is the one it builds: the summed
  /// `instance_routes` sizes, the count of instances where
  /// `instance_reaches_internet` holds, `announced_externally().size()` and
  /// `converged()`.
  struct Summary {
    std::size_t total_routes = 0;
    std::size_t instances_reaching_internet = 0;
    std::size_t announced = 0;
    bool converged = true;
  };

  /// `problem`'s fixpoint counted off its bitmaps (`prop::propagate`)
  /// instead of materialized into route vectors. Opens the same span and
  /// adds the same counters as `run`.
  static Summary summarize(const prop::Problem& problem);

  /// Routes present in an instance's RIBs after the fixpoint, sorted
  /// ascending (the same order the former std::set iteration produced).
  const std::vector<model::Route>& instance_routes(
      std::uint32_t instance) const {
    return routes_[instance];
  }

  /// Exact membership test (binary search over the sorted routes).
  bool instance_holds(std::uint32_t instance, const model::Route& route) const;

  /// True when the instance holds a route covering `addr`. Safe to call
  /// from several threads at once, also on an instance not yet queried.
  bool instance_has_route_to(std::uint32_t instance,
                             ip::Ipv4Address addr) const;

  /// True when the instance holds the default route or a route originated
  /// outside the network (so hosts there can reach the Internet at large).
  bool instance_reaches_internet(std::uint32_t instance) const;

  /// Prefixes the network announces to the external world (over external
  /// EBGP sessions), after outbound policies. Sorted ascending.
  const std::vector<model::Route>& announced_externally() const {
    return announced_;
  }

  /// Count of externally-learned routes present in an instance — the load
  /// predictor of paper §6.2's third observation.
  std::size_t external_route_count(std::uint32_t instance) const;

  /// Two-way host reachability between addresses attached to two instances:
  /// a's instance must hold a route covering b AND b's instance one covering
  /// a (the paper's AB2 vs AB4 test in Figure 12).
  bool two_way_reachable(std::uint32_t instance_a, ip::Ipv4Address addr_a,
                         std::uint32_t instance_b,
                         ip::Ipv4Address addr_b) const;

  std::size_t iterations_used() const noexcept { return iterations_; }

  /// False when the fixpoint loop was cut off by `Options::max_iterations`
  /// before quiescing; route sets are then a lower bound.
  bool converged() const noexcept { return converged_; }

  /// A parse-diagnostic-style warning line when the fixpoint did not
  /// converge; empty string otherwise.
  std::string convergence_warning() const;

 private:
  std::vector<std::vector<model::Route>> routes_;  // per instance, sorted
  std::vector<model::Route> announced_;            // sorted
  /// Prefixes injected from outside, sorted ascending (binary-searched by
  /// external_route_count on every route of every queried instance).
  std::vector<ip::Prefix> external_origin_;
  /// Per-instance covering index over routes with length > 0; a non-null
  /// longest_match means some real (non-default) route covers the address.
  /// Built lazily on an instance's first instance_has_route_to query (many
  /// callers never ask), under that instance's once_flag: a resident
  /// fleet's fixpoint is probed by concurrent requests.
  mutable std::vector<ip::PrefixTrie<char>> route_tries_;
  std::unique_ptr<std::once_flag[]> trie_once_;
  std::vector<char> has_default_;  // instance holds a 0.0.0.0/0 route
  std::size_t iterations_ = 0;
  bool converged_ = true;
};

}  // namespace rd::analysis

// model::Route ordering now lives in analysis/propagation.h (included
// above), next to the engines and the interned domain that rely on it.
