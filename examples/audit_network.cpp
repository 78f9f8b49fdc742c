// Network audit: the section 8.1 operational tasks as one report.
//
// Runs inventory, vulnerability assessment, and engineering checks over a
// network's configuration files: design classification, address-block plan,
// redistribution redundancy (single points of failure), unfiltered external
// connections, shared static destinations (maintenance grouping), missing
// router detection, and the interface inventory.
//
// The report body lives in serve/queries.cpp, shared with the rdd daemon:
// `rdctl audit` returns these exact bytes from a resident fleet, and the
// differential tests compare the two.
//
// Usage:
//   audit_network                # audit a generated managed enterprise
//   audit_network <config-dir>   # audit a directory of IOS config files
//   audit_network --whatif ...   # only the survivability (what-if) section
//   audit_network [<config-dir>] --threads N
//                                # parse configs on N threads (default: the
//                                # RD_THREADS env override, else hardware
//                                # concurrency); results are identical at
//                                # every thread count
//   audit_network ... --trace audit.json --metrics
//                                # record spans into a Chrome trace-event
//                                # file and dump event counters to stderr
//
// Exit codes: 0 = audit ran and no error-severity design-rule finding,
// 1 = at least one error-severity finding, 2 = usage or I/O error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "cli_util.h"
#include "config/writer.h"
#include "pipeline/parse_cache.h"
#include "serve/queries.h"
#include "serve/service.h"
#include "synth/archetypes.h"
#include "util/thread_pool.h"

static int run(int argc, char** argv) {
  using namespace rd;

  std::size_t threads = 0;
  cli::ObsOptions obs_options;
  bool whatif_only = false;
  const char* config_dir = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "usage: audit_network [<config-dir>] [--whatif] [--threads N]\n"
          "                     [--trace FILE] [--metrics]\n"
          "\n"
          "Audit a network's router configurations: inventory, design\n"
          "classification, vulnerability assessment, and the unified\n"
          "design-rule engine (rdlint rules RD001..RD064). With no\n"
          "config-dir a managed enterprise is generated and audited.\n"
          "\n"
          "options:\n"
          "  --whatif       print only the survivability (what-if) section:\n"
          "                 articulation routers and the single-failure\n"
          "                 sweep (the rdctl whatif op's counterpart)\n"
          "  --threads N    concurrency in [1, 1024] (default: RD_THREADS,\n"
          "                 else hardware concurrency); output is identical\n"
          "                 at every thread count\n"
          "  --trace FILE   write a Chrome trace-event JSON file covering\n"
          "                 parse, rules, and reachability spans (open in\n"
          "                 chrome://tracing or https://ui.perfetto.dev)\n"
          "  --metrics      dump deterministic event counters to stderr\n"
          "\n"
          "exit codes:\n"
          "  0  audit ran; no error-severity design-rule finding\n"
          "  1  at least one error-severity design-rule finding\n"
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
    } else if (std::strcmp(argv[i], "--whatif") == 0) {
      whatif_only = true;
    } else if (config_dir != nullptr) {
      std::fprintf(stderr, "unexpected argument '%s': audit_network takes "
                           "one config directory\n", argv[i]);
      return 2;
    } else {
      config_dir = argv[i];
    }
  }
  obs_options.enable();

  util::ThreadPool pool(threads);
  if (config_dir != nullptr && !std::filesystem::is_directory(config_dir)) {
    std::fprintf(stderr, "%s is not a directory\n", config_dir);
    return 2;
  }
  if (config_dir == nullptr) {
    std::printf("(auditing a generated managed enterprise; pass a config "
                "directory to audit your own network)\n\n");
  }
  // The construction the rdd daemon loads a fleet with, so findings carry
  // file:line provenance and `rdctl audit` answers with these exact bytes.
  // The cache lives only through the build: the model owns copies of the
  // parses.
  const auto fleet = [&] {
    pipeline::ParseCache cache;
    if (config_dir != nullptr) {
      return serve::load_fleet(config_dir, cache, pool);
    }
    synth::ManagedEnterpriseParams params;
    params.regions = 3;
    params.spokes_per_region = 14;
    params.igp_edge_rate = 0.15;
    std::vector<std::string> texts;
    for (const auto& cfg : synth::make_managed_enterprise(params).configs) {
      texts.push_back(config::write_config(cfg));
    }
    return serve::load_fleet("generated-managed-enterprise", texts, {}, cache,
                             pool);
  }();

  const auto report =
      whatif_only ? serve::whatif_report(*fleet.network, *fleet.graph, pool)
                  : serve::audit_report(*fleet.context, pool);
  std::fwrite(report.output.data(), 1, report.output.size(), stdout);
  if (const int rc = obs_options.finish("audit_network"); rc != 0) return rc;
  return report.exit_code;
}

int main(int argc, char** argv) {
  return rd::cli::guarded_main("audit_network", run, argc, argv);
}
