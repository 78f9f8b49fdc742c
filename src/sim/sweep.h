#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/instances.h"
#include "model/network.h"
#include "sim/simulator.h"
#include "util/thread_pool.h"

namespace rd::sim {

/// The scenario set for one network: a no-failure convergence baseline
/// followed by one fail/recover flap per interesting single-router failure
/// (analysis::single_failure_scenarios: articulation routers and sole
/// redistribution points), capped at `max_scenarios` flaps when non-zero.
/// Failure hits at t=240s (well past initial convergence); the outage lasts
/// 1800s so even a worst-case count-to-infinity transient has quiesced
/// before recovery — the mid-failure RIBs the cross-check snapshots are the
/// masked fixpoint, not a moving target.
std::vector<Scenario> flap_scenarios(const model::Network& network,
                                     const graph::InstanceGraph& graph,
                                     std::size_t max_scenarios);

/// Run every scenario on the pool. Scenarios are independent (each builds
/// its own policy compiler over the shared Problem) and results are merged
/// in scenario order, so the output is byte-identical to the serial loop.
std::vector<ScenarioResult> sweep_scenarios(
    const model::Network& network, const graph::InstanceSet& instances,
    const std::vector<Scenario>& scenarios, const SweepOptions& options,
    util::ThreadPool& pool);

/// One network's convergence report: per-scenario table (settle times,
/// transient micro-loops, blackhole windows, fixpoint verdicts) plus
/// totals, and with `record_log` one "--- event log: NAME ---" section per
/// scenario, from the same sweep. No thread count appears in the text —
/// the daemon/CLI differential diffs it verbatim.
std::string simulate_report(const model::Network& network,
                            const graph::InstanceGraph& graph,
                            const SweepOptions& options,
                            util::ThreadPool& pool);

/// The 31-network synthetic fleet: per-network summary rows plus
/// convergence-time distributions per archetype. `fleet_seed` picks the
/// fleet (bench::kFleetSeed = 42 everywhere else); `options.seed` drives
/// the simulations.
std::string fleet_simulation_report(std::uint64_t fleet_seed,
                                    const SweepOptions& options,
                                    util::ThreadPool& pool);

}  // namespace rd::sim
