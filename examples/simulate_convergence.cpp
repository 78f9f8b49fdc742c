// Convergence simulation: timed distance-vector dynamics over the routing
// instance graph (DESIGN.md §15).
//
// Where the reachability analyses compute the converged fixpoint directly,
// this tool replays how the network GETS there: periodic and triggered
// advertisements, split horizon with poisoned reverse, invalidation and
// garbage-collection timers, and scheduled link failures/recoveries. Per
// scenario it reports the settle time after failure and after recovery,
// transient forwarding micro-loops, and blackhole windows — and
// cross-checks the converged RIBs against the static semi-naïve engine on
// the same (masked) problem.
//
// Usage:
//   simulate_convergence                 # demo: a 2-instance enterprise
//   simulate_convergence <config-dir>    # simulate a directory of configs
//   simulate_convergence --fleet         # the 31-network synthetic fleet,
//                                        # distributions per archetype
//   simulate_convergence --seed N --until MS --scenarios N --threads N
//   simulate_convergence --log           # append per-event logs (the
//                                        # byte-identical determinism
//                                        # witness) after the report
//
// Exit codes: 0 = simulated and every fixpoint cross-check passed, 1 = a
// cross-check mismatched, 2 = usage or I/O error.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>

#include "cli_util.h"
#include "graph/instances.h"
#include "model/network.h"
#include "pipeline/parse_cache.h"
#include "pipeline/pipeline.h"
#include "pipeline/series.h"
#include "sim/sweep.h"
#include "synth/archetypes.h"
#include "synth/emit.h"
#include "util/thread_pool.h"

static int run(int argc, char** argv) {
  using namespace rd;

  sim::SweepOptions options;
  cli::ObsOptions obs_options;
  std::size_t threads = 0;
  bool fleet = false;
  const char* config_dir = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "usage: simulate_convergence [<config-dir> | --fleet]\n"
          "                            [--seed N] [--until MS]\n"
          "                            [--scenarios N] [--threads N]\n"
          "                            [--log] [--trace FILE] [--metrics]\n"
          "\n"
          "Discrete-event simulation of distance-vector convergence over\n"
          "the routing instance graph: periodic/triggered advertisements,\n"
          "split horizon with poisoned reverse, invalidation and gc\n"
          "timers, and one link-flap scenario per interesting single-\n"
          "router failure. Converged RIBs are cross-checked against the\n"
          "static semi-naive fixpoint. With no arguments a two-instance\n"
          "enterprise is generated and simulated.\n"
          "\n"
          "options:\n"
          "  --fleet        simulate the 31-network synthetic fleet and\n"
          "                 report convergence-time distributions per\n"
          "                 archetype (flaps capped per network)\n"
          "  --seed N       simulation seed (default 42); same seed =>\n"
          "                 byte-identical report and event logs at every\n"
          "                 thread count\n"
          "  --until MS     hard simulated-time cap in ms (default:\n"
          "                 automatic, last scenario event plus two settle\n"
          "                 windows)\n"
          "  --scenarios N  cap flap scenarios per network (default: all;\n"
          "                 fleet mode caps at 4)\n"
          "  --threads N    concurrency in [1, 1024] (default: RD_THREADS,\n"
          "                 else hardware concurrency); output is\n"
          "                 identical at every thread count\n"
          "  --log          record per-event logs and append them to the\n"
          "                 report (single-network modes)\n"
          "  --trace FILE   write a Chrome trace-event JSON file\n"
          "  --metrics      dump deterministic event counters to stderr\n"
          "\n"
          "exit codes:\n"
          "  0  simulation ran; every fixpoint cross-check passed\n"
          "  1  at least one scenario's RIBs mismatched the static engine\n"
          "  2  usage or I/O error\n");
      return 0;
    }
    bool obs_error = false;
    if (obs_options.consume(argc, argv, i, &obs_error)) {
      if (obs_error) return 2;
      continue;
    }
    if (std::strcmp(argv[i], "--threads") == 0) {
      if (!cli::parse_threads(i + 1 < argc ? argv[++i] : nullptr, threads)) {
        std::fprintf(stderr, "--threads wants an integer in [1, 1024]\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (!cli::parse_u64_flag(i + 1 < argc ? argv[++i] : nullptr,
                               options.seed)) {
        std::fprintf(stderr, "--seed wants an unsigned integer\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--until") == 0) {
      if (!cli::parse_u64_flag(i + 1 < argc ? argv[++i] : nullptr,
                               options.until_ms)) {
        std::fprintf(stderr,
                     "--until wants a simulated-time cap in milliseconds\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--scenarios") == 0) {
      std::uint64_t cap = 0;
      if (!cli::parse_u64_flag(i + 1 < argc ? argv[++i] : nullptr, cap)) {
        std::fprintf(stderr, "--scenarios wants an unsigned integer\n");
        return 2;
      }
      options.max_scenarios = static_cast<std::size_t>(cap);
    } else if (std::strcmp(argv[i], "--log") == 0) {
      options.record_log = true;
    } else if (std::strcmp(argv[i], "--fleet") == 0) {
      fleet = true;
    } else if (config_dir != nullptr) {
      std::fprintf(stderr, "unexpected argument '%s': simulate_convergence "
                           "takes one config directory\n", argv[i]);
      return 2;
    } else {
      config_dir = argv[i];
    }
  }
  obs_options.enable();

  util::ThreadPool pool(threads);
  if (fleet) {
    const std::string report =
        sim::fleet_simulation_report(42, options, pool);
    std::fputs(report.c_str(), stdout);
    if (const int rc = obs_options.finish("simulate_convergence"); rc != 0) {
      return rc;
    }
    return report.find("MISMATCH") == std::string::npos ? 0 : 1;
  }

  std::optional<model::Network> network;
  if (config_dir != nullptr) {
    if (!std::filesystem::is_directory(config_dir)) {
      std::fprintf(stderr, "%s is not a directory\n", config_dir);
      return 2;
    }
    auto loaded = synth::load_network_texts_named(config_dir);
    if (loaded.texts.empty()) {
      std::fprintf(stderr, "no configuration files found\n");
      return 2;
    }
    pipeline::ParseCache cache;
    network = pipeline::build_network_cached(loaded.texts, loaded.names,
                                             cache, pool);
  } else {
    // Demo: a two-IGP-instance enterprise with a BGP border — small enough
    // to read the whole report, rich enough to have redistribution edges
    // and interesting single-failure scenarios.
    synth::TextbookEnterpriseParams params;
    params.routers = 24;
    params.border_routers = 2;
    params.igp_instances = 2;
    network = model::Network::build(
        synth::make_textbook_enterprise(params).configs);
  }
  const graph::InstanceGraph ig = graph::InstanceGraph::build(*network);
  std::string report = sim::simulate_report(*network, ig, options, pool);
  if (options.record_log) {
    const auto scenarios =
        sim::flap_scenarios(*network, ig, options.max_scenarios);
    const auto results =
        sim::sweep_scenarios(*network, ig.set, scenarios, options, pool);
    for (const auto& result : results) {
      report += "\n--- event log: " + result.name + " ---\n";
      report += result.log;
    }
  }
  std::fputs(report.c_str(), stdout);
  if (const int rc = obs_options.finish("simulate_convergence"); rc != 0) {
    return rc;
  }
  return report.find("MISMATCH") == std::string::npos ? 0 : 1;
}

int main(int argc, char** argv) {
  return rd::cli::guarded_main("simulate_convergence", run, argc, argv);
}
