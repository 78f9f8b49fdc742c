// Reachability queries over a routing design (the section 6.2 analysis as a
// tool): which destinations can hosts attached to each routing instance
// reach, can two addresses communicate, and what does the network announce
// to the outside world?
//
// The report bodies live in serve/queries.cpp, shared with the rdd daemon:
// `rdctl reachability` / `rdctl headerspace` return these exact bytes from
// a resident fleet. Only the net15 demo banner and case-study epilogue are
// CLI-local.
//
// Usage:
//   reachability_query                       # query the net15 case study
//   reachability_query <config-dir>          # your own network
//   reachability_query <config-dir> A B      # two-way reachability of A, B
//   reachability_query --symbolic ...        # exact header-space analysis:
//                                            # with A B, the full packet set
//                                            # that passes A -> B (filters,
//                                            # routes, and return path all
//                                            # applied); without, verify the
//                                            # "! rd-intent" assertions
//   reachability_query --trace FILE          # Chrome trace-event JSON of
//                                            # the fixpoint rounds
//   reachability_query --metrics             # event counters on stderr
//   reachability_query --help                # options and exit codes
//
// Exit codes: 0 = query answered, 2 = usage or I/O error.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/reachability.h"
#include "cli_util.h"
#include "config/writer.h"
#include "pipeline/parse_cache.h"
#include "serve/queries.h"
#include "serve/service.h"
#include "synth/archetypes.h"
#include "util/thread_pool.h"

static int run(int argc, char** argv) {
  using namespace rd;

  serve::ReachabilityRequest request;
  cli::ObsOptions obs_options;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "usage: reachability_query [<config-dir> [A B]] [--symbolic]\n"
          "                          [--trace FILE] [--metrics]\n"
          "\n"
          "Policy-aware route propagation over the routing instances:\n"
          "per-instance routes and Internet reach, or whether addresses A\n"
          "and B can communicate both ways. With no config-dir the\n"
          "generated net15 case study is queried.\n"
          "\n"
          "options:\n"
          "  --symbolic     exact header-space analysis: with A B, the\n"
          "                 packet set passing A -> B; without, verify the\n"
          "                 \"! rd-intent\" assertions\n"
          "  --trace FILE   write a Chrome trace-event JSON file\n"
          "  --metrics      dump deterministic event counters to stderr\n"
          "\n"
          "exit codes:\n"
          "  0  query answered\n"
          "  2  usage or I/O error\n");
      return 0;
    }
    bool obs_error = false;
    if (obs_options.consume(argc, argv, i, &obs_error)) {
      if (obs_error) return 2;
      continue;
    }
    if (std::strcmp(argv[i], "--symbolic") == 0) {
      request.symbolic = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown option '%s' (see --help)\n", argv[i]);
      return 2;
    } else if (positional.size() == 3) {
      std::fprintf(stderr, "unexpected argument '%s': reachability_query "
                           "takes a config directory and two addresses\n",
                   argv[i]);
      return 2;
    } else {
      positional.push_back(argv[i]);
    }
  }
  obs_options.enable();
  if (positional.empty()) {
    const auto plan = synth::net15_plan();
    request.external_prefixes = {plan.ab0, plan.external_left,
                                 plan.external_right};
    std::printf("(querying the generated net15 case study; pass a config "
                "directory for your own network)\n\n");
  }
  // The construction audit_network, rdlint and the rdd daemon share, so
  // `rdctl reachability` answers with these exact bytes. The demo is a
  // handful of routers and builds on the calling thread alone.
  util::ThreadPool pool(positional.empty() ? 1 : 0);
  const auto fleet = [&] {
    pipeline::ParseCache cache;
    if (!positional.empty()) {
      return serve::load_fleet(positional[0], cache, pool);
    }
    // Each router's text is named by its hostname.
    std::vector<std::string> texts;
    std::vector<std::string> names;
    for (const auto& cfg : synth::make_net15().configs) {
      texts.push_back(config::write_config(cfg));
      names.push_back(cfg.hostname);
    }
    return serve::load_fleet("net15", texts, names, cache, pool);
  }();
  // A lone address reaches reachability_report, which rejects it with exit
  // 2, the check a daemon request gets too.
  if (positional.size() > 1) request.source = positional[1];
  if (positional.size() > 2) request.destination = positional[2];

  const auto report = serve::reachability_report(*fleet.context, request);
  if (!report.error.empty()) {
    std::fwrite(report.error.data(), 1, report.error.size(), stderr);
  }
  std::fwrite(report.output.data(), 1, report.output.size(), stdout);
  if (report.exit_code != 0) return report.exit_code;

  // The net15 demo question: can the two host blocks talk? (CLI-local
  // epilogue; the daemon serves directories, never the generated demo.)
  if (positional.empty() && !request.symbolic) {
    analysis::ReachabilityAnalysis::Options options;
    options.external_prefixes = request.external_prefixes;
    const auto& network = *fleet.network;
    const auto& instances = fleet.graph->set;
    const auto reach =
        analysis::ReachabilityAnalysis::run(network, instances, options);
    const auto plan = synth::net15_plan();
    const auto a = ip::Ipv4Address(plan.ab2.network().value() + 257);
    const auto b = ip::Ipv4Address(plan.ab4.network().value() + 257);
    const auto ia = serve::instance_attached_to(network, instances, a);
    const auto ib = serve::instance_attached_to(network, instances, b);
    std::printf("\ncase-study question: can AB2 hosts (%s) and AB4 hosts "
                "(%s) communicate?\n  -> %s (the paper's section 6.2 "
                "finding: they cannot; the policy intersections are empty)\n",
                a.to_string().c_str(), b.to_string().c_str(),
                (ia >= 0 && ib >= 0 &&
                 reach.two_way_reachable(static_cast<std::uint32_t>(ia), a,
                                         static_cast<std::uint32_t>(ib), b))
                    ? "yes"
                    : "no");
  }
  return obs_options.finish("reachability_query");
}

int main(int argc, char** argv) {
  return rd::cli::guarded_main("reachability_query", run, argc, argv);
}
