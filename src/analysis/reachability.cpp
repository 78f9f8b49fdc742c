#include "analysis/reachability.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "analysis/propagation.h"
#include "obs/obs.h"

namespace rd::analysis {

namespace {

/// Logical-event counters: identical totals at every thread count (the
/// fixpoint is confluent), so they belong in the deterministic counter
/// set. Added once per run, not per route.
void count_run(std::size_t iterations, std::size_t routes,
               std::size_t announced) {
  obs::counter("reachability.runs").add();
  obs::counter("reachability.iterations").add(iterations);
  obs::counter("reachability.routes").add(routes);
  obs::counter("reachability.announced").add(announced);
}

}  // namespace

prop::Problem ReachabilityAnalysis::problem(
    const model::Network& network, const graph::InstanceSet& instances,
    const Options& options, const std::vector<ip::Prefix>& universe) {
  prop::DiscoverOptions discover_options;
  discover_options.max_iterations = options.max_iterations;
  discover_options.active_external_endpoints =
      options.active_external_endpoints;
  return prop::discover(network, instances, discover_options, universe);
}

ReachabilityAnalysis ReachabilityAnalysis::run(
    const model::Network& network, const graph::InstanceSet& instances,
    const Options& options) {
  obs::Span run_span("reachability.run", "reachability");
  run_span.arg("instances", instances.instances.size());
  ReachabilityAnalysis analysis;
  const std::size_t n = instances.instances.size();

  const prop::Problem problem = ReachabilityAnalysis::problem(
      network, instances, options,
      prop::external_universe(network, options.external_prefixes));
  analysis.external_origin_.reserve(problem.universe.size());
  for (const auto& offer : problem.universe) {
    analysis.external_origin_.push_back(offer.prefix);
  }
  prop::FixpointResult result = prop::run_semi_naive(problem, {});

  analysis.routes_ = std::move(result.routes);
  analysis.announced_ = std::move(result.announced);
  analysis.iterations_ = result.iterations;
  analysis.converged_ = result.converged;

  if (obs::counting_enabled()) {
    std::size_t total_routes = 0;
    for (const auto& routes : analysis.routes_) total_routes += routes.size();
    count_run(result.iterations, total_routes, analysis.announced_.size());
  }

  // --- Covering index bookkeeping. Routes sort shortest-prefix-first, so
  // "holds a default" is just a front() check; the per-instance tries are
  // built on first query (see instance_has_route_to) — eager construction
  // cost rivaled the whole semi-naïve fixpoint at fleet scale, and many
  // callers never query coverage at all.
  analysis.route_tries_.resize(n);
  analysis.trie_once_ = std::make_unique<std::once_flag[]>(n);
  analysis.has_default_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& routes = analysis.routes_[i];
    if (!routes.empty() && routes.front().prefix.length() == 0) {
      analysis.has_default_[i] = 1;
    }
  }
  return analysis;
}

ReachabilityAnalysis::Summary ReachabilityAnalysis::summarize(
    const prop::Problem& problem) {
  obs::Span run_span("reachability.run", "reachability");
  run_span.arg("instances", problem.instance_count);
  const prop::Propagation fixpoint = prop::propagate(problem, {});

  // `run` notes a default when an instance's sorted routes start with a
  // /0, tagged or not: here, when any /0 position's bit is set.
  std::vector<std::uint32_t> defaults;
  for (std::uint32_t pos = 0; pos < fixpoint.domain.size(); ++pos) {
    if (fixpoint.domain[pos].prefix.length() == 0) defaults.push_back(pos);
  }
  Summary summary;
  for (const auto& bits : fixpoint.member) {
    summary.total_routes += prop::held_count(bits);
    if (std::any_of(defaults.begin(), defaults.end(), [&](std::uint32_t pos) {
          return prop::holds(bits, pos);
        })) {
      ++summary.instances_reaching_internet;
    }
  }
  summary.announced = prop::held_count(fixpoint.announced);
  summary.converged = fixpoint.converged;
  if (obs::counting_enabled()) {
    count_run(fixpoint.iterations, summary.total_routes, summary.announced);
  }
  return summary;
}

bool ReachabilityAnalysis::instance_holds(std::uint32_t instance,
                                          const model::Route& route) const {
  const auto& routes = routes_[instance];
  return std::binary_search(routes.begin(), routes.end(), route);
}

bool ReachabilityAnalysis::instance_has_route_to(std::uint32_t instance,
                                                 ip::Ipv4Address addr) const {
  std::call_once(trie_once_[instance], [&] {
    // Routes are sorted shortest-prefix-first, so insert_uncovered stores
    // only a minimal cover — a prefix under an already-indexed cover can
    // never change the boolean covering answer below.
    for (const auto& route : routes_[instance]) {
      if (route.prefix.length() > 0) {
        route_tries_[instance].insert_uncovered(route.prefix, 1);
      }
    }
  });
  return route_tries_[instance].longest_match(addr) != nullptr;
}

bool ReachabilityAnalysis::instance_reaches_internet(
    std::uint32_t instance) const {
  return has_default_[instance] != 0;
}

std::size_t ReachabilityAnalysis::external_route_count(
    std::uint32_t instance) const {
  std::size_t count = 0;
  for (const auto& route : routes_[instance]) {
    if (std::binary_search(external_origin_.begin(), external_origin_.end(),
                           route.prefix)) {
      ++count;
    }
  }
  return count;
}

bool ReachabilityAnalysis::two_way_reachable(std::uint32_t instance_a,
                                             ip::Ipv4Address addr_a,
                                             std::uint32_t instance_b,
                                             ip::Ipv4Address addr_b) const {
  return instance_has_route_to(instance_a, addr_b) &&
         instance_has_route_to(instance_b, addr_a);
}

std::string ReachabilityAnalysis::convergence_warning() const {
  if (converged_) return {};
  return "warning: route propagation stopped after " +
         std::to_string(iterations_) +
         " iterations without reaching a fixpoint; reachability results are "
         "a lower bound (raise Options::max_iterations)";
}

}  // namespace rd::analysis
