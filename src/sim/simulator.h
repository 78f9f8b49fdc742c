#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/propagation.h"
#include "model/network.h"
#include "sim/event_queue.h"

namespace rd::sim {

/// One failure scenario: the named routers go down at `fail_at_ms` and
/// (when `recover_at_ms` is set — a flap) come back later. Masking follows
/// prop::masked: seeds, endpoints, aggregates, and redistribution points
/// owned by a failed router disappear; session flows need both endpoint
/// routers alive. `failed` must be sorted ascending.
struct Scenario {
  std::string name;
  std::vector<model::RouterId> failed;
  SimTime fail_at_ms = 120'000;
  std::optional<SimTime> recover_at_ms;
};

/// The simulation's settings, shared by the CLI, the daemon op, and the
/// fleet bench. Scenario runs derive everything else from `seed`, so two
/// sweeps with equal options are byte-identical at any thread count. The
/// protocol timers are constants (classic distance-vector defaults), and
/// every run cross-checks its converged RIBs against the static semi-naïve
/// fixpoint: the mid-failure state against prop::masked's fixpoint, the
/// final state against the baseline's (or the masked one when there is no
/// recovery).
struct SweepOptions {
  std::uint64_t seed = 42;
  /// Hard stop (simulated ms). 0 = automatic: last scenario event plus two
  /// settle windows (a settle window is invalid + gc + 2 advertisement
  /// intervals — after that long with no state change, nothing pending can
  /// change anything again).
  SimTime until_ms = 0;
  /// Cap on failure scenarios per network (0 = all). The fleet report uses
  /// a small cap and says so; single-network reports default to all.
  std::size_t max_scenarios = 0;
  /// Append a per-event line to ScenarioResult::log — the byte-exact
  /// determinism witness — and the logs to the single-network report. Off
  /// for fleet sweeps (reports carry summaries).
  bool record_log = false;
};

/// Per-scenario outcome. All counters are logical-event counts, identical
/// on every run of the same seed at any host thread count.
struct ScenarioResult {
  std::string name;
  bool had_failure = false;  // scenario had a non-empty failed set
  bool quiesced = false;   // reached quiescence before the time cap
  SimTime end_ms = 0;      // simulated time when the run stopped
  /// Time from the fail (resp. recover) event to the last route change it
  /// caused — the transient length operators care about.
  SimTime settle_after_fail_ms = 0;
  SimTime settle_after_recover_ms = 0;
  std::size_t events_processed = 0;
  std::size_t updates_delivered = 0;  // advertisement deliveries processed
  std::size_t route_changes = 0;
  /// Route changes that left the instance-graph next-hop chain for the
  /// changed route cyclic — a transient forwarding micro-loop.
  std::size_t microloops = 0;
  /// Closed blackhole windows: a (instance, route) that lost its valid
  /// entry and regained one later in the run. Open-at-end outages are the
  /// converged state, not a transient, and are not windows.
  std::size_t blackhole_windows = 0;
  SimTime blackhole_total_ms = 0;
  SimTime blackhole_max_ms = 0;
  std::size_t final_route_count = 0;  // sum of valid entries over instances
  /// Fixpoint cross-checks: true when the simulated RIBs equal the static
  /// semi-naïve engine's on the same (masked) problem; `mismatched_routes`
  /// counts the symmetric difference.
  bool degraded_match = true;
  bool final_match = true;
  std::size_t mismatched_routes = 0;
  std::string log;  // event log when SweepOptions::record_log
};

/// Runs one scenario of timed distance-vector convergence over the routing
/// instance graph described by `baseline` (prop::discover's output for the
/// intact network). Deterministic in (baseline, scenario, options.seed):
/// the caller may fan scenarios out across threads and merge in scenario
/// order for byte-identical sweeps. `baseline_routes` is the baseline's
/// semi-naïve fixpoint, computed once and shared across a sweep.
ScenarioResult simulate(
    const analysis::prop::Problem& baseline, const Scenario& scenario,
    const SweepOptions& options,
    const std::vector<std::vector<model::Route>>& baseline_routes);

}  // namespace rd::sim
