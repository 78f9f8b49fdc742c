#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/reachability.h"
#include "graph/instances.h"
#include "model/network.h"
#include "util/thread_pool.h"

namespace rd::analysis {

/// "What if" survivability analysis (paper §8.1, network engineering):
/// evaluate the robustness of the routing design to equipment failures —
/// "uncover scenarios where a single link or session failure would
/// disconnect part of the network".

/// Structural impact of a set of router failures.
struct FailureImpact {
  std::size_t instances_before = 0;
  /// Instances of the surviving processes.
  std::size_t instances_after = 0;
  /// Baseline instances whose surviving processes ended up split across
  /// more than one instance — the failure partitioned them.
  std::vector<std::uint32_t> fragmented_instances;
};

/// A router whose single failure splits its own routing instance: an
/// articulation point of the instance's router-level adjacency graph.
struct ArticulationRouter {
  model::RouterId router = model::kInvalidId;
  std::uint32_t instance = 0;
};

/// All articulation routers, per instance (instances of one router have
/// none by definition).
std::vector<ArticulationRouter> instance_articulation_routers(
    const model::Network& network, const graph::InstanceSet& instances);

/// Routers that are the sole route-exchange point between some instance
/// pair (redundancy group of size one) — the other single-failure
/// disconnection mode.
std::vector<model::RouterId> sole_redistribution_routers(
    const model::Network& network, const graph::InstanceGraph& graph);

/// One named failure scenario of a what-if sweep.
struct FailureScenario {
  std::string name;  // hostname(s) of the failed equipment
  std::vector<model::RouterId> failed;
};

/// Structural + reachability impact of one scenario, evaluated on its
/// failure Problem (see sweep_failure_scenarios).
struct ScenarioImpact {
  FailureScenario scenario;
  FailureImpact structural;
  /// The failure Problem's fixpoint summary.
  std::size_t instances_reaching_internet = 0;
  std::size_t total_routes = 0;  // sum over the partition's instances
  std::size_t announced_externally = 0;
  bool reachability_converged = true;
};

/// The interesting single-router failure scenarios: articulation routers
/// plus sole redistribution points, deduplicated and ordered by router id —
/// the candidates §8.1's survivability question asks about.
std::vector<FailureScenario> single_failure_scenarios(
    const model::Network& network, const graph::InstanceGraph& graph);

/// Evaluate every scenario, fanned out across the pool. A scenario's
/// failure Problem comes from the intact network, which is never rebuilt:
/// the surviving processes re-closed over the intact adjacencies
/// (`graph::compute_instances` with the failed routers), discovered with
/// the intact network's external universe (one per sweep), then masked as
/// the simulator masks a failure (`prop::masked`), so a link or session to
/// a failed router is down, not external. The structural impact reads the
/// same re-closure; the fixpoint is counted by
/// `ReachabilityAnalysis::summarize`. `failed` may come in any order.
/// Result `i` is scenario `i`'s impact regardless of scheduling, so
/// parallel sweeps are byte-identical to the serial loop.
std::vector<ScenarioImpact> sweep_failure_scenarios(
    const model::Network& network, const graph::InstanceSet& baseline,
    const std::vector<FailureScenario>& scenarios,
    const ReachabilityAnalysis::Options& reach_options, util::ThreadPool& pool);

}  // namespace rd::analysis
