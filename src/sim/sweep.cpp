#include "sim/sweep.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "analysis/whatif.h"
#include "obs/obs.h"
#include "synth/fleet.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace rd::sim {
namespace {

using util::appendf;

/// Failure timing of the standard flap: fail well past initial
/// convergence, keep the outage long enough that the slowest transient
/// (count-to-infinity climbs at triggered-update pace, bounded by the
/// infinity metric) finishes before recovery. See flap_scenarios() docs.
constexpr SimTime kFailAtMs = 240'000;
constexpr SimTime kOutageMs = 1'800'000;

/// Cap on the external route universe fed to the simulation. The first N
/// prefixes in ascending order are kept — deterministic, and the default
/// route sorts first. Backbone/tier-2 policies mention tens of thousands of
/// prefixes; simulating timer dynamics does not need all of them, and the
/// fixpoint cross-check runs on the same truncated problem so it stays
/// exact. The reports state the cap.
constexpr std::size_t kMaxExternalPrefixes = 1024;

double ms_to_s(SimTime ms) { return static_cast<double>(ms) / 1000.0; }

std::string fmt_seconds(SimTime ms) {
  return util::fmt_double(ms_to_s(ms), 1);
}

}  // namespace

std::vector<Scenario> flap_scenarios(const model::Network& network,
                                     const graph::InstanceGraph& graph,
                                     std::size_t max_scenarios) {
  std::vector<Scenario> out;
  Scenario baseline;
  baseline.name = "baseline-convergence";
  out.push_back(std::move(baseline));
  auto failures = analysis::single_failure_scenarios(network, graph);
  if (max_scenarios != 0 && failures.size() > max_scenarios) {
    failures.resize(max_scenarios);
  }
  for (auto& failure : failures) {
    Scenario scenario;
    scenario.name = failure.name + "-flap";
    scenario.failed = std::move(failure.failed);
    std::sort(scenario.failed.begin(), scenario.failed.end());
    scenario.fail_at_ms = kFailAtMs;
    scenario.recover_at_ms = kFailAtMs + kOutageMs;
    out.push_back(std::move(scenario));
  }
  return out;
}

std::vector<ScenarioResult> sweep_scenarios(
    const model::Network& network, const graph::InstanceSet& instances,
    const std::vector<Scenario>& scenarios, const SweepOptions& options,
    util::ThreadPool& pool) {
  obs::Span span("sim.sweep", "sim");
  span.arg("scenarios", scenarios.size());
  auto universe = analysis::prop::external_universe(network, {});
  if (universe.size() > kMaxExternalPrefixes) {
    universe.resize(kMaxExternalPrefixes);
  }
  const analysis::prop::Problem problem =
      analysis::prop::discover(network, instances, {}, universe);
  // The baseline fixpoint is shared by every flap scenario's final check;
  // computed once, read-only afterwards.
  const auto baseline_routes =
      analysis::prop::run_semi_naive(problem, {}).routes;
  return util::parallel_map(pool, scenarios, [&](const Scenario& scenario) {
    return simulate(problem, scenario, options, baseline_routes);
  });
}

std::string simulate_report(const model::Network& network,
                            const graph::InstanceGraph& graph,
                            const SweepOptions& options,
                            util::ThreadPool& pool) {
  std::string out;
  const auto scenarios = flap_scenarios(network, graph, options.max_scenarios);
  const auto results =
      sweep_scenarios(network, graph.set, scenarios, options, pool);
  appendf(out, "=== Convergence simulation ===\n");
  // No thread count here: the output is byte-identical at every
  // concurrency level, and the daemon/CLI differential diffs it.
  appendf(out,
          "seed %llu, %zu scenarios (%zu flaps), %zu routing instances\n",
          static_cast<unsigned long long>(options.seed), results.size(),
          results.size() - 1, graph.set.instances.size());
  appendf(out,
          "external route universe capped at %zu prefixes (ascending "
          "order; cross-checks run on the same capped problem)\n",
          kMaxExternalPrefixes);
  util::Table table({"scenario", "quiesced", "settle fail", "settle rec",
                     "changes", "loops", "blackholes", "max bh", "fixpoint"});
  std::size_t mismatches = 0;
  for (const auto& result : results) {
    const bool ok = result.degraded_match && result.final_match;
    if (!ok) ++mismatches;
    table.add_row(
        {result.name, result.quiesced ? "yes" : "NO",
         fmt_seconds(result.settle_after_fail_ms),
         fmt_seconds(result.settle_after_recover_ms),
         util::fmt_int(static_cast<long long>(result.route_changes)),
         util::fmt_int(static_cast<long long>(result.microloops)),
         util::fmt_int(static_cast<long long>(result.blackhole_windows)),
         fmt_seconds(result.blackhole_max_ms), ok ? "ok" : "MISMATCH"});
  }
  out += table.to_string();
  if (mismatches == 0) {
    appendf(out,
            "fixpoint cross-check: every scenario's RIBs match the static "
            "semi-naive engine\n");
  } else {
    appendf(out, "fixpoint cross-check: %zu scenario(s) MISMATCHED\n",
            mismatches);
  }
  if (options.record_log) {
    for (const auto& result : results) {
      out += "\n--- event log: " + result.name + " ---\n";
      out += result.log;
    }
  }
  return out;
}

std::string fleet_simulation_report(std::uint64_t fleet_seed,
                                    const SweepOptions& options,
                                    util::ThreadPool& pool) {
  std::string out;
  // The fleet tier caps flaps per network so the tier stays minutes, not
  // hours; the cap is stated so nobody mistakes it for full coverage.
  SweepOptions per_network = options;
  if (per_network.max_scenarios == 0) per_network.max_scenarios = 4;
  appendf(out,
          "=== Fleet convergence simulation (fleet seed %llu, sim seed "
          "%llu) ===\n",
          static_cast<unsigned long long>(fleet_seed),
          static_cast<unsigned long long>(options.seed));
  appendf(out,
          "flap scenarios capped at %zu per network (articulation / sole "
          "redistribution routers, analysis::single_failure_scenarios "
          "order)\n",
          per_network.max_scenarios);
  appendf(out,
          "external route universe capped at %zu prefixes per network "
          "(ascending order; cross-checks run on the same capped "
          "problem)\n",
          kMaxExternalPrefixes);

  struct ArchetypeStats {
    std::size_t networks = 0;
    std::size_t scenarios = 0;
    std::size_t quiesced = 0;
    std::size_t microloops = 0;
    std::size_t blackhole_windows = 0;
    std::size_t mismatches = 0;
    std::vector<double> settle_fail_s;
    std::vector<double> settle_recover_s;
  };
  std::vector<std::pair<std::string, ArchetypeStats>> archetypes;
  const auto stats_for = [&](const std::string& name) -> ArchetypeStats& {
    for (auto& [key, value] : archetypes) {
      if (key == name) return value;
    }
    archetypes.emplace_back(name, ArchetypeStats{});
    return archetypes.back().second;
  };

  util::Table networks_table({"network", "archetype", "inst", "scen",
                              "quiesced", "fail p50", "fail max", "rec p50",
                              "rec max", "loops", "bh", "fixpoint"});
  const auto fleet = synth::generate_fleet(fleet_seed);
  for (const auto& net : fleet.networks) {
    const model::Network network = model::Network::build(net.configs);
    const graph::InstanceGraph ig = graph::InstanceGraph::build(network);
    const auto scenarios =
        flap_scenarios(network, ig, per_network.max_scenarios);
    const auto results =
        sweep_scenarios(network, ig.set, scenarios, per_network, pool);

    ArchetypeStats& stats = stats_for(net.archetype);
    ++stats.networks;
    std::vector<double> fail_s;
    std::vector<double> recover_s;
    std::size_t quiesced = 0;
    std::size_t loops = 0;
    std::size_t blackholes = 0;
    std::size_t mismatches = 0;
    for (const auto& result : results) {
      ++stats.scenarios;
      if (result.quiesced) {
        ++quiesced;
        ++stats.quiesced;
      }
      loops += result.microloops;
      blackholes += result.blackhole_windows;
      if (!(result.degraded_match && result.final_match)) ++mismatches;
      if (result.had_failure) {
        fail_s.push_back(ms_to_s(result.settle_after_fail_ms));
        recover_s.push_back(ms_to_s(result.settle_after_recover_ms));
      }
    }
    stats.microloops += loops;
    stats.blackhole_windows += blackholes;
    stats.mismatches += mismatches;
    stats.settle_fail_s.insert(stats.settle_fail_s.end(), fail_s.begin(),
                               fail_s.end());
    stats.settle_recover_s.insert(stats.settle_recover_s.end(),
                                  recover_s.begin(), recover_s.end());
    networks_table.add_row(
        {net.name, net.archetype,
         util::fmt_int(static_cast<long long>(ig.set.instances.size())),
         util::fmt_int(static_cast<long long>(results.size())),
         util::fmt_int(static_cast<long long>(quiesced)),
         fail_s.empty() ? "-" : util::fmt_double(util::quantile(fail_s, 0.5),
                                                 1),
         fail_s.empty()
             ? "-"
             : util::fmt_double(
                   *std::max_element(fail_s.begin(), fail_s.end()), 1),
         recover_s.empty()
             ? "-"
             : util::fmt_double(util::quantile(recover_s, 0.5), 1),
         recover_s.empty()
             ? "-"
             : util::fmt_double(
                   *std::max_element(recover_s.begin(), recover_s.end()), 1),
         util::fmt_int(static_cast<long long>(loops)),
         util::fmt_int(static_cast<long long>(blackholes)),
         mismatches == 0 ? "ok" : "MISMATCH"});
  }
  out += networks_table.to_string();

  appendf(out, "\nConvergence-time distributions per archetype (seconds, "
               "flap scenarios only):\n");
  util::Table archetype_table({"archetype", "networks", "scenarios",
                               "fail p50", "fail p95", "fail max", "rec p50",
                               "rec p95", "rec max", "loops", "bh windows",
                               "fixpoint"});
  std::size_t total_mismatches = 0;
  for (const auto& [name, stats] : archetypes) {
    total_mismatches += stats.mismatches;
    const auto dist = [](const std::vector<double>& values, double q) {
      return values.empty() ? std::string("-")
                            : util::fmt_double(util::quantile(values, q), 1);
    };
    const auto max_of = [](const std::vector<double>& values) {
      return values.empty()
                 ? std::string("-")
                 : util::fmt_double(
                       *std::max_element(values.begin(), values.end()), 1);
    };
    archetype_table.add_row(
        {name, util::fmt_int(static_cast<long long>(stats.networks)),
         util::fmt_int(static_cast<long long>(stats.scenarios)),
         dist(stats.settle_fail_s, 0.5), dist(stats.settle_fail_s, 0.95),
         max_of(stats.settle_fail_s), dist(stats.settle_recover_s, 0.5),
         dist(stats.settle_recover_s, 0.95), max_of(stats.settle_recover_s),
         util::fmt_int(static_cast<long long>(stats.microloops)),
         util::fmt_int(static_cast<long long>(stats.blackhole_windows)),
         stats.mismatches == 0 ? "ok" : "MISMATCH"});
  }
  out += archetype_table.to_string();
  if (total_mismatches == 0) {
    appendf(out,
            "fixpoint cross-check: every scenario on every network "
            "matches the static semi-naive engine\n");
  } else {
    appendf(out, "fixpoint cross-check: %zu scenario(s) MISMATCHED\n",
            total_mismatches);
  }
  return out;
}

}  // namespace rd::sim
