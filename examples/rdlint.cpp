// rdlint: the unified design-rule CLI (paper §8 static analysis).
//
// Runs every registered design rule (RD001..RD064: lint, cross-router
// consistency, vulnerability assessment, the cross-router design rules, the
// symbolic header-space rules, and route-redistribution safety)
// over a network's configuration files and reports the findings with source
// provenance (file + line). Inline "! rdlint-disable <RDid>" comments in a
// config suppress that rule's findings for that router.
//
// Usage:
//   rdlint                       # demo: generate + lint a managed enterprise
//   rdlint <config-dir>          # lint one network (file/line provenance)
//   rdlint <dir1> <dir2> ...     # ordered snapshots: lint each through the
//                                # parse cache, report new/fixed/unchanged
//                                # per transition, emit the last snapshot
//   rdlint --help                # full option and exit-code reference
//
// Options:
//   --format text|json|sarif     # report format for stdout (default text)
//   --baseline FILE              # classify findings against a previous
//                                # "--format json" report
//   --threads N                  # rule + parse concurrency (default: the
//                                # RD_THREADS env override, else hardware
//                                # concurrency); output is identical at
//                                # every thread count
//   --trace FILE                 # Chrome trace-event JSON: one span per
//                                # rule, plus parse and pool spans
//   --metrics                    # deterministic event counters on stderr
//
// Exit codes: 0 = no error-severity finding, 1 = at least one
// error-severity finding, 2 = usage or I/O error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/rules.h"
#include "cli_util.h"
#include "config/writer.h"
#include "pipeline/parse_cache.h"
#include "serve/queries.h"
#include "serve/service.h"
#include "synth/archetypes.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace {

using namespace rd;

std::optional<std::string> read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void print_usage() {
  std::printf(
      "usage: rdlint [options] [<config-dir> ...]\n"
      "\n"
      "Run the design-rule engine (RD001..RD064) over router\n"
      "configurations. With no directory a managed enterprise is\n"
      "generated and linted; with several directories they are treated\n"
      "as ordered snapshots of one network and each transition is\n"
      "classified as new/fixed/unchanged findings.\n"
      "\n"
      "options:\n"
      "  --format text|json|sarif  stdout report format (default text)\n"
      "  --baseline FILE           classify against a previous\n"
      "                            '--format json' report\n"
      "  --threads N               concurrency in [1, 1024]; output is\n"
      "                            identical at every thread count\n"
      "  --trace FILE              Chrome trace-event JSON (per-rule,\n"
      "                            parse, and pool spans; open in\n"
      "                            chrome://tracing or Perfetto)\n"
      "  --metrics                 deterministic event counters on stderr\n"
      "  --help                    this text\n"
      "\n"
      "suppressions: a '! rdlint-disable RD007 RD031' comment anywhere in\n"
      "a router's config drops those rules' findings for that router.\n"
      "\n"
      "exit codes:\n"
      "  0  no error-severity finding\n"
      "  1  at least one error-severity finding\n"
      "  2  usage or I/O error\n");
}

}  // namespace

static int run(int argc, char** argv) {
  std::vector<std::filesystem::path> dirs;
  std::string format = "text";
  const char* baseline_path = nullptr;
  std::size_t threads = 0;
  cli::ObsOptions obs_options;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      print_usage();
      return 0;
    }
    bool obs_error = false;
    if (obs_options.consume(argc, argv, i, &obs_error)) {
      if (obs_error) return 2;
      continue;
    }
    if (std::strcmp(argv[i], "--format") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--format wants text, json, or sarif\n");
        return 2;
      }
      format = argv[++i];
      if (format != "text" && format != "json" && format != "sarif") {
        std::fprintf(stderr, "unknown format '%s'\n", format.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--baseline") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--baseline wants a file\n");
        return 2;
      }
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (!cli::parse_threads(i + 1 < argc ? argv[++i] : nullptr, threads)) {
        std::fprintf(stderr, "--threads wants an integer in [1, 1024]\n");
        return 2;
      }
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown option '%s' (see --help)\n", argv[i]);
      return 2;
    } else {
      dirs.emplace_back(argv[i]);
    }
  }
  for (const auto& dir : dirs) {
    if (!std::filesystem::is_directory(dir)) {
      std::fprintf(stderr, "%s is not a directory\n", dir.string().c_str());
      return 2;
    }
  }

  obs_options.enable();
  util::ThreadPool pool(threads);
  const auto engine = analysis::RuleEngine::with_default_rules();

  // One loop over the snapshots: the demo is a series of one generated
  // network, one directory a series of one. Every snapshot loads through
  // the construction the rdd daemon uses, on one parse cache, so an
  // unchanged router costs one hash, not one parse, and each finding
  // carries its config file name. Each transition is classified by
  // finding fingerprint; the last snapshot is the report.
  if (dirs.empty()) {
    std::fprintf(stderr, "(linting a generated managed enterprise; pass a "
                         "config directory to lint your own network)\n");
  }
  const std::size_t snapshots = std::max<std::size_t>(dirs.size(), 1);
  pipeline::ParseCache cache;
  const auto load = [&](std::size_t s) {
    if (!dirs.empty()) return serve::load_fleet(dirs[s].string(), cache, pool);
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
  };
  std::string name;
  analysis::RuleEngine::Result result;
  std::vector<std::string> previous;
  for (std::size_t s = 0; s < snapshots; ++s) {
    const auto fleet = load(s);
    // The model owns copies of the parses: past the last load the cache
    // only holds memory.
    if (s + 1 == snapshots) cache.clear();
    result = engine.run(*fleet.context, pool);
    name = fleet.report_name;
    if (s > 0) {
      const auto delta =
          analysis::diff_against_baseline(result.findings, previous);
      std::fprintf(stderr,
                   "snapshot %s -> %s: %zu new, %zu fixed, %zu unchanged\n",
                   dirs[s - 1].filename().string().c_str(), name.c_str(),
                   delta.new_findings.size(), delta.fixed.size(),
                   delta.unchanged.size());
    }
    previous.clear();
    for (const auto& f : result.findings) {
      previous.push_back(analysis::finding_fingerprint(f));
    }
  }

  // Baseline classification (fingerprint set comparison against a previous
  // --format json report).
  std::optional<analysis::BaselineDelta> delta;
  if (baseline_path != nullptr) {
    const auto text = read_file(baseline_path);
    if (!text) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline_path);
      return 2;
    }
    const auto fingerprints = analysis::baseline_fingerprints(*text);
    if (!fingerprints) {
      std::fprintf(stderr, "%s is not an rdlint JSON report\n",
                   baseline_path);
      return 2;
    }
    delta = analysis::diff_against_baseline(result.findings, *fingerprints);
  }

  std::string out = serve::render_lint_report(
      engine, result, name, *serve::lint_format_from(format));
  if (delta && format == "sarif") {
    std::fprintf(stderr, "note: --baseline summary: %zu new, %zu fixed, "
                         "%zu unchanged (not represented in SARIF)\n",
                 delta->new_findings.size(), delta->fixed.size(),
                 delta->unchanged.size());
  } else if (delta && format == "json") {
    // Re-parse the report and graft the baseline section on, so stdout
    // stays one valid JSON document.
    auto doc = util::Json::parse(out);
    auto baseline = util::Json::object();
    baseline.set("new", delta->new_findings.size());
    baseline.set("fixed", delta->fixed.size());
    baseline.set("unchanged", delta->unchanged.size());
    auto fixed = util::Json::array();
    for (const auto& fp : delta->fixed) fixed.push_back(fp);
    baseline.set("fixed_fingerprints", std::move(fixed));
    auto fresh = util::Json::array();
    for (const auto& f : delta->new_findings) {
      fresh.push_back(analysis::finding_fingerprint(f));
    }
    baseline.set("new_fingerprints", std::move(fresh));
    doc->set("baseline", std::move(baseline));
    out = doc->dump(2) + "\n";
  } else if (delta) {
    util::appendf(out, "baseline: %zu new, %zu fixed, %zu unchanged\n",
                  delta->new_findings.size(), delta->fixed.size(),
                  delta->unchanged.size());
    for (const auto& finding : delta->new_findings) {
      serve::append_finding_line(out, finding, "new ");
    }
    for (const auto& fp : delta->fixed) {
      util::appendf(out, "  fixed %s\n", fp.c_str());
    }
  }
  std::fwrite(out.data(), 1, out.size(), stdout);

  if (const int rc = obs_options.finish("rdlint"); rc != 0) return rc;
  return result.has_errors() ? 1 : 0;
}

int main(int argc, char** argv) {
  return rd::cli::guarded_main("rdlint", run, argc, argv);
}
