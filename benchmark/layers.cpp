// The traced run every workload shares. The workload's own networks pass
// through each layer's public calls one call at a time, each inside an
// obs::Span of category "bench" named after its per-layer metric, so every
// workload reports the same per-layer metrics from its own inputs. Passes
// alternate untraced and traced; the traced ones feed the Chrome trace.
// Every figure is per pass, summed over the workload's networks. The
// audit's own layers (address structure, design, what-if, router RIBs,
// intents, the audit report) run on the networks the workload audits, and
// the simulation on the largest of them.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "analysis/archetype.h"
#include "analysis/census.h"
#include "analysis/dataflow.h"
#include "analysis/filters.h"
#include "analysis/header_space.h"
#include "analysis/ibgp.h"
#include "analysis/packet_reachability.h"
#include "analysis/reachability.h"
#include "analysis/router_rib.h"
#include "analysis/rules.h"
#include "analysis/vulnerability.h"
#include "analysis/whatif.h"
#include "bench.h"
#include "config/ast.h"
#include "config/parser.h"
#include "graph/address_space.h"
#include "graph/instances.h"
#include "model/network.h"
#include "obs/obs.h"
#include "pipeline/disk_store.h"
#include "pipeline/parse_cache.h"
#include "pipeline/pipeline.h"
#include "serve/protocol.h"
#include "serve/queries.h"
#include "serve/service.h"
#include "synth/emit.h"
#include "util/thread_pool.h"

namespace rdbench {

namespace {

using namespace rd;
using obs::Span;

/// One network of the workload as the passes see it.
struct Input {
  fs::path dir;
  std::string fleet;  // its name in the in-process Service
  std::size_t routers = 0;
  bool audited = false;
  std::unique_ptr<PairSource> pairs;
};

/// What one network produced in a pass.
struct NetworkPass {
  LayeredBytes bytes;
  std::size_t diagnostics = 0;
  std::size_t scenarios = 0;
  std::size_t texts = 0;
  std::size_t disk_hits = 0;
  std::size_t store_misses = 0;
  bool service_checked = false;
  bool service_ok = false;
  /// audit_report's wall less the walls of the analyses this pass also
  /// times on their own: the audit's rendering.
  double audit_render_ms = 0.0;
  std::vector<analysis::RuleEngine::RuleTiming> timings;
  std::unique_ptr<model::Network> network;  // kept for the simulation only
};

struct Pass {
  std::vector<NetworkPass> networks;
  std::uint64_t sim_events = 0;
  bool sim_cross_checked = false;
  bool frames_ok = false;
};

serve::Request reach_request(const std::string& fleet,
                             const std::pair<std::string, std::string>& pair) {
  serve::Request request;
  request.op = "reachability";
  request.fleet = fleet;
  std::tie(request.source, request.destination) = pair;
  return request;
}

/// Encode, write, read and decode one response over a socketpair.
bool frame_roundtrip(const std::string& output) {
  serve::Response response;
  response.output = output;
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return false;
  std::thread writer(
      [&] { serve::write_frame(fds[0], serve::encode_response(response)); });
  std::string payload;
  const bool read_ok = serve::read_frame(fds[1], payload, nullptr);
  writer.join();
  close(fds[0]);
  close(fds[1]);
  const auto decoded = serve::decode_response(payload);
  return read_ok && decoded && decoded->output == output;
}

/// One network through every layer call, each in its bench span, inside
/// a "bench.network" root span whose own time is the unattributed part.
NetworkPass network_pass(const Input& input, pipeline::DiskStore& store,
                         const analysis::RuleEngine& engine,
                         serve::Service& service, util::ThreadPool& pool) {
  NetworkPass out;
  Span root("bench.network", "bench");
  const auto loaded = [&] {
    Span span("synth.load", "bench");
    return synth::load_network_texts_named(input.dir);
  }();
  out.texts = loaded.texts.size();
  {
    // The texts again, decoded from the store the Service wrote.
    Span span("pipeline.store_load", "bench");
    pipeline::ParseCache cache;
    cache.attach_store(&store);
    for (const auto& text : loaded.texts) cache.parse(text);
    out.disk_hits = cache.stats().disk_hits;
    out.store_misses = cache.stats().misses;
  }
  std::vector<config::ParseResult> parses;
  {
    Span span("config.parse", "bench");
    for (std::size_t i = 0; i < loaded.texts.size(); ++i) {
      parses.push_back(config::parse_config(loaded.texts[i], loaded.names[i]));
      out.diagnostics += parses.back().diagnostics.size();
    }
  }
  out.network = [&] {
    Span span("model.build", "bench");
    return std::make_unique<model::Network>(
        model::Network::build_parsed(std::move(parses)));
  }();
  const auto& network = *out.network;
  const auto ig = [&] {
    Span span("graph.instance_graph", "bench");
    return graph::InstanceGraph::build(network);
  }();
  // The analyses audit_report repeats, timed together.
  double audit_parts_s = 0.0;
  const auto timed = [&](auto&& call) {
    const double t0 = now_s();
    call();
    audit_parts_s += now_s() - t0;
  };
  if (input.audited) {
    Span span("graph.address_structure", "bench");
    timed([&] {
      const auto structure = graph::extract_address_structure(network);
      graph::detect_missing_routers(network, structure);
    });
  }
  if (input.audited) {
    Span span("analysis.design", "bench");
    timed([&] {
      analysis::interface_census(network);
      analysis::unnumbered_interface_count(network);
      analysis::classify_design(network, ig.set);
      analysis::redistribution_redundancy(network, ig);
      analysis::detect_backdoor_candidates(network, ig);
      analysis::find_unfiltered_external_connections(network);
      analysis::shared_static_destinations(network);
      analysis::gather_filter_stats(network);
      analysis::analyze_ibgp(network, ig.set);
    });
  }
  if (input.audited) {
    Span span("analysis.whatif", "bench");
    timed([&] {
      analysis::instance_articulation_routers(network, ig.set);
      const auto scenarios = analysis::single_failure_scenarios(network, ig);
      out.scenarios = scenarios.size();
      if (!scenarios.empty()) {
        analysis::sweep_failure_scenarios(network, ig.set, scenarios, {},
                                          pool);
      }
    });
  }
  const double fixpoint_t0 = now_s();
  const auto reach = [&] {
    Span span("analysis.fixpoint", "bench");
    return analysis::ReachabilityAnalysis::run(network, ig.set);
  }();
  const double fixpoint_s = now_s() - fixpoint_t0;
  if (input.audited) {
    Span span("analysis.router_rib", "bench");
    timed([&] { analysis::RouterRibAnalysis::run(network, ig.set, reach); });
  }
  if (input.audited) {
    Span span("analysis.intents", "bench");
    timed([&] {
      const auto intents = analysis::collect_intents(network);
      analysis::verify_intents(network, ig.set, reach, intents);
    });
  }
  const auto pair = input.pairs->empty()
                        ? std::pair<std::string, std::string>()
                        : input.pairs->next();
  if (!pair.first.empty()) {
    Span span("analysis.headerspace", "bench");
    analysis::HeaderSpace space(network, ig.set, reach);
    const auto a = ip::Ipv4Address::parse(pair.first);
    const auto b = ip::Ipv4Address::parse(pair.second);
    const auto ingress = space.attachment_interface(*a);
    const auto egress = space.attachment_interface(*b);
    if (ingress && egress) {
      space.pair_predicate(*ingress, *egress);
      analysis::FlowQuery query;
      query.source = *a;
      query.destination = *b;
      space.passes(query);
    }
  }
  const double rules_t0 = now_s();
  const auto rules = [&] {
    Span span("analysis.rules", "bench");
    return engine.run(network, ig, pool);
  }();
  const double rules_s = now_s() - rules_t0;
  out.timings = rules.timings;
  {
    Span span("analysis.dataflow", "bench");
    analysis::InstanceDataflow flow(network, ig);
  }
  if (input.audited) {
    Span span("serve.audit_report", "bench");
    const double t0 = now_s();
    out.bytes.audit = serve::audit_report(network, ig, pool).output;
    out.audit_render_ms =
        (now_s() - t0 - audit_parts_s - fixpoint_s - rules_s) * 1000.0;
  }
  {
    Span span("serve.render_lint", "bench");
    out.bytes.sarif = serve::render_lint_report(
        engine, rules, input.dir.filename().string(), serve::LintFormat::kSarif);
  }
  if (!pair.first.empty()) {
    // A direct query, then the same question to the in-process Service:
    // first a fresh fill, then a response-cache hit. All three must carry
    // the same bytes.
    serve::ReachabilityRequest request;
    std::tie(request.source, request.destination) = pair;
    const auto direct = [&] {
      Span span("serve.query", "bench");
      return serve::reachability_report(network, ig.set, request).output;
    }();
    const auto fresh = [&] {
      Span span("serve.service", "bench");
      return service.handle(reach_request(input.fleet, pair));
    }();
    const auto hit = [&] {
      Span span("serve.service_hit", "bench");
      return service.handle(reach_request(input.fleet, pair));
    }();
    out.service_checked = true;
    out.service_ok =
        fresh.ok && hit.ok && fresh.output == direct && hit.output == direct;
  }
  return out;
}

/// Every network in turn, each call that takes a pool on the 4-thread
/// pool as the CLIs run it, then one simulation of the largest audited
/// network and frame I/O of the largest SARIF.
Pass layered_pass(const std::vector<Input>& inputs, const fs::path& store_dir,
                  std::size_t sim_input, std::uint64_t sim_seed,
                  const analysis::RuleEngine& engine, serve::Service& service,
                  util::ThreadPool& pool) {
  Pass pass;
  pipeline::DiskStore store(store_dir);
  for (const auto& input : inputs) {
    pass.networks.push_back(network_pass(input, store, engine, service, pool));
  }
  {
    const auto& network = *pass.networks[sim_input].network;
    const auto ig = graph::InstanceGraph::build(network);
    const auto events = counter("sim.events");
    Span span("sim.simulate", "bench");
    const auto output =
        serve::simulate_report(network, ig, sim_seed, 0, pool).output;
    pass.sim_events = counter("sim.events") - events;
    pass.sim_cross_checked =
        output.find("fixpoint cross-check: every scenario's RIBs match") !=
        std::string::npos;
  }
  const auto largest = std::max_element(
      pass.networks.begin(), pass.networks.end(),
      [](const NetworkPass& a, const NetworkPass& b) {
        return a.bytes.sarif.size() < b.bytes.sarif.size();
      });
  Span span("serve.frame", "bench");
  pass.frames_ok = frame_roundtrip(largest->bytes.sarif);
  return pass;
}

/// Every network built and analysed as one pool task, the way
/// analyze_fleet_parallel runs a fleet, each task and its analysis inside
/// bench spans.
std::vector<std::string> pipeline_pass(
    const std::vector<synth::LoadedTexts>& texts,
    const std::vector<Input>& inputs, util::ThreadPool& pool) {
  std::vector<std::size_t> order(inputs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  return util::parallel_map(pool, order, [&](std::size_t i) {
    Span task("pipeline.network", "bench");
    const auto network = pipeline::build_network_serial(texts[i].texts);
    Span span("pipeline.analyze_network", "bench");
    return pipeline::analyze_network(inputs[i].fleet, network).json;
  });
}

}  // namespace

std::vector<LayeredBytes> layered_run(const Options& options,
                                      const std::vector<LayeredInput>& networks,
                                      util::ThreadPool& pool, Result& result) {
  if (networks.empty()) throw std::runtime_error("no networks to trace");
  const auto store_dir = options.work_dir / "layers-store";
  serve::Service::Options service_options;
  service_options.threads = kThreads;
  service_options.store_directory = store_dir.string();
  serve::Service service(service_options);  // boots over a fresh store
  std::vector<Input> inputs;
  std::vector<synth::LoadedTexts> texts;
  std::size_t sim_input = 0;
  for (std::size_t i = 0; i < networks.size(); ++i) {
    const auto& dir = networks[i].dir;
    Input input;
    input.dir = dir;
    input.fleet = dir.filename().string();
    input.routers = service.add_fleet(input.fleet, dir.string()).routers;
    input.audited = networks[i].audited;
    input.pairs = std::make_unique<PairSource>(dir, options.seed + i);
    // The simulation runs on the largest audited network.
    if (inputs.empty() ||
        std::make_pair(input.audited, input.routers) >
            std::make_pair(inputs[sim_input].audited,
                           inputs[sim_input].routers)) {
      sim_input = i;
    }
    inputs.push_back(std::move(input));
    texts.push_back(synth::load_network_texts_named(dir));
  }
  const auto engine = analysis::RuleEngine::with_default_rules();

  auto& registry = obs::Registry::instance();
  registry.reset();
  std::vector<double> plain_s, traced_s;
  Pass traced;  // the last traced pass; counts are the same in every pass
  // Sums over the traced passes of what the trace does not hold.
  std::map<std::string, double> rule_ms;
  double critical_ms = 0.0;
  double audit_render_ms = 0.0;
  std::vector<LayeredBytes> first;
  std::size_t service_checks = 0;
  const double start = now_s();
  // Untraced and traced passes in turn, at least one of each, for about
  // --seconds; every pass simulates its own seed.
  while (traced_s.empty() || now_s() - start < options.seconds) {
    const bool tracing = plain_s.size() > traced_s.size();
    const auto sim_seed =
        options.seed * 1000 + plain_s.size() + traced_s.size();
    registry.set_tracing(tracing);
    registry.set_counting(tracing);
    const double t0 = now_s();
    auto pass = layered_pass(inputs, store_dir, sim_input, sim_seed, engine,
                             service, pool);
    (tracing ? traced_s : plain_s).push_back(now_s() - t0);
    registry.set_tracing(false);
    registry.set_counting(false);
    std::vector<LayeredBytes> bytes;
    std::size_t diagnostics = 0, misses = 0, service_ok = 0, checked = 0;
    for (const auto& network : pass.networks) {
      bytes.push_back(network.bytes);
      diagnostics += network.diagnostics;
      misses += network.store_misses;
      checked += network.service_checked ? 1 : 0;
      service_ok += network.service_ok ? 1 : 0;
    }
    service_checks += checked;
    if (first.empty()) {
      first = bytes;
    } else {
      result.gate.check(bytes == first, "layered pass bytes equal the first "
                                        "pass's");
    }
    result.gate.check(diagnostics == 0, "parse diagnostics on input");
    result.gate.check(misses == 0, "no text parsed cold past the store");
    result.gate.check(service_ok == checked,
                      "Service reachability equals the direct report");
    result.gate.check(pass.sim_cross_checked, "simulate fixpoint cross-check");
    result.gate.check(pass.frames_ok, "frame round trip");
    if (!tracing) continue;
    for (const auto& network : pass.networks) {
      double slowest = 0.0;
      for (const auto& t : network.timings) {
        rule_ms[t.rule_id] += t.millis;
        slowest = std::max(slowest, t.millis);
      }
      critical_ms += slowest;
      audit_render_ms += network.audit_render_ms;
    }
    traced = std::move(pass);
  }
  const auto times = write_and_read_trace(options.trace_dir /
                                          (options.workload + ".trace.json"));

  // One parallel build-and-analyse pass, the pipeline's own path, with a
  // span per network task and the program's counters on.
  registry.reset();
  registry.set_tracing(true);
  registry.set_counting(true);
  const double t0 = now_s();
  const auto reports = pipeline_pass(texts, inputs, pool);
  const double pipeline_s = now_s() - t0;
  registry.set_tracing(false);
  registry.set_counting(false);
  const auto fixpoint_runs = counter("reachability.runs");
  const auto dataflow_runs = counter("dataflow.runs");
  const auto tasks = write_and_read_trace(
      options.trace_dir / (options.workload + ".pipeline.trace.json"));
  registry.reset();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    first[i].report = reports[i];
  }

  // The trace holds every traced pass; figures are per pass.
  const auto reps = static_cast<double>(traced_s.size());
  const auto layer = [&](const char* span) {
    const auto it = times.self_ms.find(span);
    return it == times.self_ms.end() ? 0.0 : it->second / reps;
  };
  const auto count = [](std::size_t n) { return static_cast<double>(n); };
  std::size_t diagnostics = 0, scenarios = 0, texts_read = 0, disk_hits = 0;
  for (const auto& network : traced.networks) {
    diagnostics += network.diagnostics;
    scenarios += network.scenarios;
    texts_read += network.texts;
    disk_hits += network.disk_hits;
  }
  result.metric("synth.load_ms", layer("synth.load"), "ms");
  result.metric("config.parse_ms", layer("config.parse"), "ms");
  result.metric("config.diagnostics", count(diagnostics), "count");
  result.metric("model.build_ms", layer("model.build"), "ms");
  result.metric("graph.instance_graph_ms", layer("graph.instance_graph"), "ms");
  result.metric("graph.address_structure_ms",
                layer("graph.address_structure"), "ms");
  result.metric("analysis.design_ms", layer("analysis.design"), "ms");
  result.metric("analysis.whatif_ms", layer("analysis.whatif"), "ms");
  result.metric("analysis.whatif_scenarios", count(scenarios), "count");
  result.metric("analysis.fixpoint_ms", layer("analysis.fixpoint"), "ms");
  result.metric("analysis.fixpoint_runs", count(fixpoint_runs), "count");
  result.metric("analysis.router_rib_ms", layer("analysis.router_rib"), "ms");
  result.metric("analysis.intents_ms", layer("analysis.intents"), "ms");
  result.metric("analysis.headerspace_ms", layer("analysis.headerspace"), "ms");
  result.metric("analysis.rules_ms", layer("analysis.rules"), "ms");
  result.metric("analysis.rules_critical_ms", critical_ms / reps, "ms");
  for (const char* rule : {"RD050", "RD043", "RD052", "RD060", "RD062"}) {
    result.metric(std::string("analysis.rule.") + rule + "_ms",
                  rule_ms[rule] / reps, "ms");
  }
  result.metric("analysis.dataflow_ms", layer("analysis.dataflow"), "ms");
  result.metric("analysis.dataflow_runs", count(dataflow_runs), "count");
  // Report assembly: analyze_network less the program's own spans for the
  // parts it times, which open only inside those calls in that trace.
  double analyze_parts = 0.0;
  for (const char* part : {"analyze.instance_graph", "analyze.rules",
                           "analyze.reachability", "analyze.dataflow"}) {
    analyze_parts += tasks.program(part);
  }
  const auto task = [&](const std::map<std::string, double>& per_span,
                        const char* name) {
    const auto it = per_span.find(name);
    return it == per_span.end() ? 0.0 : it->second;
  };
  result.metric("pipeline.report_ms",
                task(tasks.self_ms, "pipeline.analyze_network") - analyze_parts,
                "ms");
  result.metric("pipeline.slowest_network_ms",
                task(tasks.max_ms, "pipeline.network"), "ms");
  result.metric("pipeline.parallel_efficiency",
                task(tasks.total_ms, "pipeline.network") /
                    (static_cast<double>(pool.size()) * pipeline_s * 1000.0),
                "ratio");
  result.metric("pipeline.store_load_ms", layer("pipeline.store_load"), "ms");
  result.metric("pipeline.disk_hit_ratio",
                count(disk_hits) / count(texts_read), "ratio");
  result.metric("sim.simulate_ms", layer("sim.simulate"), "ms");
  result.metric("sim.events", count(traced.sim_events), "count");
  result.metric("serve.query_ms", layer("serve.query"), "ms");
  // Rendering: SARIF, plus the part of audit_report not spent in the
  // analyses the pass also times on their own.
  result.metric("serve.render_ms",
                layer("serve.render_lint") + audit_render_ms / reps, "ms");
  result.metric("serve.service_ms", layer("serve.service"), "ms");
  result.metric("serve.service_hit_ms", layer("serve.service_hit"), "ms");
  result.metric("serve.response_cache_hit_ratio",
                count(service.response_cache_hits()) / count(service_checks),
                "ratio");
  result.metric("serve.frame_ms", layer("serve.frame"), "ms");
  result.metric("util.pool_wait_ms", times.program("pool.queue_wait") / reps,
                "ms");
  result.metric("obs.trace_overhead_pct",
                (median(traced_s) / median(plain_s) - 1.0) * 100.0, "%");
  result.metric("unattributed_ms", layer("bench.network"), "ms");
  result.details["layered_passes"] = count(plain_s.size() + traced_s.size());
  return first;
}

}  // namespace rdbench
