// cold_audit: the operator and CI use (paper §8). Cold one-shot
// `audit_network --threads 4 DIR` and `rdlint --threads 4 --format sarif
// DIR` processes over generated managed enterprises, each with 16 planted
// "! rd-intent" assertions. Every process is cold, so no cache helps. A
// run checks eight networks, the managed archetype at generator seeds 1-8;
// the workload seed drives the planted intents.
#include <set>

#include "analysis/rules.h"
#include "bench.h"
#include "config/ast.h"
#include "graph/instances.h"
#include "model/network.h"
#include "pipeline/parse_cache.h"
#include "pipeline/series.h"
#include "serve/queries.h"
#include "synth/archetypes.h"
#include "synth/emit.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rdbench {

namespace {

using namespace rd;

constexpr std::size_t kIntents = 16;
/// One network's audit cost moves by a factor of two with its generator
/// seed, so the networks are the same at every workload seed.
constexpr std::size_t kNetworks = 8;

struct Inputs {
  std::size_t routers = 0;
  std::size_t intents = 0;
};

/// Generate a managed enterprise with kIntents "! rd-intent allow|deny SRC
/// DST" assertions drawn from `intent_seed` between distinct LAN /24s (the
/// generator emits none), each declared on the source LAN's router, and
/// write it.
Inputs write_inputs(const fs::path& dir, std::uint64_t network_seed,
                    std::uint64_t intent_seed) {
  synth::ManagedEnterpriseParams params;
  params.seed = network_seed;
  auto net = synth::make_managed_enterprise(params);
  std::vector<std::pair<std::size_t, ip::Prefix>> lans;  // router, LAN
  std::set<ip::Prefix> seen;
  for (std::size_t r = 0; r < net.configs.size(); ++r) {
    for (const auto& itf : net.configs[r].interfaces) {
      if (itf.address && itf.address->mask.length() == 24 && !itf.shutdown &&
          seen.insert(itf.address->subnet()).second) {
        lans.emplace_back(r, itf.address->subnet());
      }
    }
  }
  util::Rng rng(intent_seed);
  std::set<std::pair<std::size_t, std::size_t>> used;
  const auto want = std::min(kIntents, lans.size() * (lans.size() - 1));
  while (!lans.empty() && used.size() < want) {
    const auto a = rng.below(lans.size());
    const auto b = rng.below(lans.size());
    if (a == b || !used.emplace(a, b).second) continue;
    config::IntentDirective intent;
    intent.expect_reachable = rng.below(2) == 0;
    intent.source = lans[a].second;
    intent.destination = lans[b].second;
    net.configs[lans[a].first].intents.push_back(intent);
  }
  fs::remove_all(dir);
  synth::emit_network(net.configs, dir);
  return {net.configs.size(), used.size()};
}

/// The bytes each CLI must print, computed in-process the way each CLI
/// builds its network.
struct Reference {
  std::string audit;
  int audit_exit = 0;
  std::string sarif;
  int sarif_exit = 0;
  std::size_t diagnostics = 0;
};

Reference reference(const fs::path& dir, const analysis::RuleEngine& engine,
                    util::ThreadPool& pool) {
  Reference ref;
  const auto loaded = synth::load_network_texts_named(dir);
  pipeline::ParseCache cache;
  const auto network =
      pipeline::build_network_cached(loaded.texts, loaded.names, cache, pool);
  const auto ig = graph::InstanceGraph::build(network);
  auto audit = serve::audit_report(network, ig, pool);
  ref.audit = std::move(audit.output);
  ref.audit_exit = audit.exit_code;
  ref.diagnostics = network.total_parse_diagnostics();

  const auto lint_network = model::Network::build(synth::load_network(dir));
  const auto lint = engine.run(lint_network, pool);
  ref.sarif = serve::render_lint_report(engine, lint, dir.filename().string(),
                                        serve::LintFormat::kSarif);
  ref.sarif_exit = lint.has_errors() ? 1 : 0;
  return ref;
}

/// One generated network of the run: its directory and reference bytes.
struct Network {
  fs::path dir;
  Inputs inputs;
  Reference ref;
};

}  // namespace

void cold_audit(const Options& options, Result& result) {
  // Several networks, so one run's figures do not hang on one network's
  // design. A network's set-up is writing its directory and computing the
  // bytes the CLIs must print for it; the writes alone are a few tens of
  // ms of file-system time and too noisy to bound.
  std::vector<Network> networks(kNetworks);
  util::Rng rng(options.seed);
  util::ThreadPool pool(kThreads);
  const auto engine = analysis::RuleEngine::with_default_rules();
  std::vector<double> setup_s;
  std::size_t routers = 0;
  for (std::size_t i = 0; i < networks.size(); ++i) {
    auto& network = networks[i];
    network.dir = options.work_dir / ("managed" + std::to_string(i));
    const double t0 = now_s();
    network.inputs = write_inputs(network.dir, i + 1, rng.next());
    network.ref = reference(network.dir, engine, pool);
    setup_s.push_back(now_s() - t0);
    routers += network.inputs.routers;
  }
  std::size_t diagnostics = 0;
  for (const auto& network : networks) {
    result.gate.digest(network.ref.audit);
    result.gate.digest(network.ref.sarif);
    diagnostics += network.ref.diagnostics;
    result.gate.check(network.inputs.intents == kIntents &&
                          network.ref.diagnostics == 0,
                      "generated input shape (intents planted, 0 diagnostics)");
  }
  result.details["networks"] = static_cast<double>(networks.size());
  result.details["routers"] = static_cast<double>(routers);
  result.details["intents"] = static_cast<double>(networks[0].inputs.intents);
  result.details["diagnostics"] = static_cast<double>(diagnostics);
  if (options.shape) return;
  if (options.trace) {
    std::vector<LayeredInput> inputs;
    for (const auto& network : networks) inputs.push_back({network.dir, true});
    const auto layered = layered_run(options, inputs, pool, result);
    for (std::size_t i = 0; i < networks.size(); ++i) {
      result.gate.same(layered[i].audit, networks[i].ref.audit,
                       "layered audit_report");
      result.gate.same(layered[i].sarif, networks[i].ref.sarif,
                       "layered render_lint_report");
    }
    return;
  }
  result.metric("setup_s", median(setup_s), "s");

  // Whole rounds over the networks. One operation is what CI does with a
  // network: an audit process, then a lint process.
  const auto audit_bin = (options.bin_dir / "audit_network").string();
  const auto rdlint_bin = (options.bin_dir / "rdlint").string();
  const auto threads = std::to_string(kThreads);
  struct Samples {
    std::vector<double> wall_ms, cpu_ms, rss_mb;
  };
  std::vector<Samples> samples(networks.size());
  std::size_t processes = 0;
  const double start = now_s();
  for (std::size_t round = 0;
       round < 2 || now_s() - start < options.seconds; ++round) {
    for (std::size_t i = 0; i < networks.size(); ++i) {
      const auto& network = networks[i];
      const auto dir = network.dir.string();
      const auto audit = run_process({audit_bin, "--threads", threads, dir});
      const auto lint = run_process(
          {rdlint_bin, "--threads", threads, "--format", "sarif", dir});
      processes += 2;
      const bool audit_ok =
          result.gate.same(audit.out, network.ref.audit, "audit_network stdout",
                           audit.exit_code == network.ref.audit_exit);
      const bool lint_ok =
          result.gate.same(lint.out, network.ref.sarif, "rdlint SARIF",
                           lint.exit_code == network.ref.sarif_exit);
      if (!audit_ok || !lint_ok) continue;
      samples[i].wall_ms.push_back((audit.wall_s + lint.wall_s) * 1000.0);
      samples[i].cpu_ms.push_back((audit.cpu_s + lint.cpu_s) * 1000.0);
      samples[i].rss_mb.push_back(std::max(audit.rss_mb, lint.rss_mb));
    }
    if (result.gate.failed() > 10) break;  // broken build: stop early
  }
  // Each network's median, averaged over the networks.
  const auto per_network = [&](std::vector<double> Samples::*field) {
    std::vector<double> medians;
    for (const auto& s : samples) medians.push_back(median(s.*field));
    return mean(medians);
  };
  result.metric("latency_ms", per_network(&Samples::wall_ms), "ms");
  result.metric("cpu_ms", per_network(&Samples::cpu_ms), "ms");
  result.metric("peak_rss_mb", per_network(&Samples::rss_mb), "MB");
  result.details["processes"] = static_cast<double>(processes);
}

}  // namespace rdbench
