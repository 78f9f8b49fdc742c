#include "pipeline/pipeline.h"

#include <map>
#include <utility>

#include "analysis/archetype.h"
#include "analysis/census.h"
#include "analysis/context.h"
#include "analysis/dataflow.h"
#include "analysis/header_space.h"
#include "analysis/reachability.h"
#include "analysis/rules.h"
#include "config/parser.h"
#include "graph/dot.h"
#include "graph/instances.h"
#include "obs/obs.h"
#include "util/json.h"

namespace rd::pipeline {

namespace {

// Full ParseResult, not just the config: diagnostics ride along so the
// model and reports can surface malformed lines (dropping them here was the
// bug this pipeline once had).
config::ParseResult parse_one(const std::string& text) {
  static obs::Counter& routers = obs::counter("parse.routers");
  static obs::Counter& diagnostics = obs::counter("parse.diagnostics");
  obs::Span span("parse.router", "pipeline");
  auto result = config::parse_config(text);
  span.arg("bytes", text.size());
  span.arg("diagnostics", result.diagnostics.size());
  routers.add();
  diagnostics.add(result.diagnostics.size());
  return result;
}

// util::Json has no uint32_t constructor; ids need an explicit widening.
util::Json uid(std::uint32_t v) {
  return util::Json(static_cast<long long>(v));
}

}  // namespace

model::Network build_network_serial(const std::vector<std::string>& texts) {
  std::vector<config::ParseResult> parses;
  parses.reserve(texts.size());
  {
    obs::Span span("parse.network", "pipeline");
    span.arg("routers", texts.size());
    for (const auto& text : texts) parses.push_back(parse_one(text));
  }
  obs::Span span("model.build", "pipeline");
  return model::Network::build_parsed(std::move(parses));
}

std::string network_signature(const model::Network& network) {
  using util::Json;
  auto root = Json::object();

  auto routers = Json::array();
  for (const auto& config : network.routers()) {
    auto r = Json::object();
    r.set("hostname", config.hostname);
    r.set("interfaces", config.interfaces.size());
    r.set("stanzas", config.router_stanzas.size());
    r.set("acls", config.access_lists.size());
    r.set("route_maps", config.route_maps.size());
    r.set("statics", config.static_routes.size());
    routers.push_back(std::move(r));
  }
  root.set("routers", std::move(routers));

  auto interfaces = Json::array();
  for (const auto& itf : network.interfaces()) {
    auto i = Json::object();
    i.set("router", uid(itf.router));
    i.set("name", itf.name);
    i.set("hw", itf.hardware_type);
    i.set("address", itf.address ? itf.address->to_string() : "-");
    i.set("subnet", itf.subnet ? itf.subnet->to_string() : "-");
    auto secondaries = Json::array();
    for (const auto& prefix : itf.secondary_subnets) {
      secondaries.push_back(prefix.to_string());
    }
    i.set("secondaries", std::move(secondaries));
    i.set("link", uid(itf.link));
    i.set("shutdown", itf.shutdown);
    i.set("p2p", itf.point_to_point);
    i.set("external", itf.external_facing);
    interfaces.push_back(std::move(i));
  }
  root.set("interfaces", std::move(interfaces));

  auto links = Json::array();
  for (const auto& link : network.links()) {
    auto l = Json::object();
    l.set("subnet", link.subnet.to_string());
    auto members = Json::array();
    for (const auto id : link.interfaces) members.push_back(uid(id));
    l.set("interfaces", std::move(members));
    l.set("external", link.external_facing);
    links.push_back(std::move(l));
  }
  root.set("links", std::move(links));

  auto processes = Json::array();
  for (const auto& process : network.processes()) {
    auto p = Json::object();
    p.set("router", uid(process.router));
    p.set("protocol", static_cast<int>(process.protocol));
    p.set("id", process.process_id ? uid(*process.process_id) : Json());
    auto covered = Json::array();
    for (const auto id : process.covered_interfaces) covered.push_back(uid(id));
    p.set("covers", std::move(covered));
    processes.push_back(std::move(p));
  }
  root.set("processes", std::move(processes));

  auto igp = Json::array();
  for (const auto& adj : network.igp_adjacencies()) {
    auto a = Json::object();
    a.set("a", uid(adj.process_a));
    a.set("b", uid(adj.process_b));
    a.set("link", uid(adj.link));
    igp.push_back(std::move(a));
  }
  root.set("igp_adjacencies", std::move(igp));

  auto external_igp = Json::array();
  for (const auto& adj : network.external_igp_adjacencies()) {
    auto a = Json::object();
    a.set("process", uid(adj.process));
    a.set("interface", uid(adj.interface));
    external_igp.push_back(std::move(a));
  }
  root.set("external_igp_adjacencies", std::move(external_igp));

  auto sessions = Json::array();
  for (const auto& session : network.bgp_sessions()) {
    auto s = Json::object();
    s.set("local", uid(session.local_process));
    s.set("remote_address", session.remote_address.to_string());
    s.set("local_as", uid(session.local_as));
    s.set("remote_as", uid(session.remote_as));
    s.set("remote", uid(session.remote_process));
    sessions.push_back(std::move(s));
  }
  root.set("bgp_sessions", std::move(sessions));

  auto redists = Json::array();
  for (const auto& edge : network.redistribution_edges()) {
    auto e = Json::object();
    e.set("router", uid(edge.router));
    e.set("source_kind", static_cast<int>(edge.source_kind));
    e.set("source", uid(edge.source_process));
    e.set("target", uid(edge.target_process));
    e.set("route_map", edge.route_map ? Json(*edge.route_map) : Json());
    redists.push_back(std::move(e));
  }
  root.set("redistribution_edges", std::move(redists));

  auto diagnostics = Json::array();
  for (const auto& router_diags : network.parse_diagnostics()) {
    auto per_router = Json::array();
    for (const auto& diag : router_diags) {
      auto d = Json::object();
      d.set("line", diag.line);
      d.set("message", diag.message);
      per_router.push_back(std::move(d));
    }
    diagnostics.push_back(std::move(per_router));
  }
  root.set("parse_diagnostics", std::move(diagnostics));

  return root.dump();
}

NetworkReport analyze_network(const std::string& name,
                              const model::Network& network) {
  using util::Json;
  obs::Span network_span("analyze.network", "pipeline");
  network_span.label(name);
  const auto ig = [&] {
    obs::Span span("analyze.instance_graph", "pipeline");
    return graph::InstanceGraph::build(network);
  }();
  const auto classification = analysis::classify_design(network, ig.set);
  const auto census = analysis::interface_census(network);
  // One context for the report and the rules. Its fixpoint and dataflow
  // (DESIGN.md §13; cheap, its domain is instances, not routers) are forced
  // in their own spans first, so the trace charges them to their layers.
  const analysis::Context ctx(network, ig);
  const auto& reach = [&]() -> const analysis::ReachabilityAnalysis& {
    obs::Span span("analyze.reachability", "pipeline");
    return ctx.routes();
  }();
  const auto& flow = [&]() -> const analysis::InstanceDataflow& {
    obs::Span span("analyze.dataflow", "pipeline");
    return ctx.dataflow();
  }();
  // One engine run covers the consistency and lint sections below plus the
  // vulnerability and cross-router rules; the registry is immutable and
  // shared across the (possibly concurrent) per-network tasks, and each
  // task runs its rules on a one-thread pool, the serial loop.
  static const auto engine = analysis::RuleEngine::with_default_rules();
  const auto rules_result = [&] {
    obs::Span span("analyze.rules", "pipeline");
    util::ThreadPool serial(1);
    return engine.run(ctx, serial);
  }();
  obs::counter("fleet.networks").add();

  const auto category_of = [&](const analysis::Finding& f) -> std::string {
    const auto* info = engine.find(f.rule_id);
    return info != nullptr ? info->category : std::string();
  };
  const auto name_of = [&](const analysis::Finding& f) -> std::string {
    const auto* info = engine.find(f.rule_id);
    return info != nullptr ? info->name : std::string();
  };

  NetworkReport report;
  report.name = name;
  report.archetype = std::string(analysis::to_string(classification.archetype));
  report.routers = network.router_count();
  report.links = network.links().size();
  report.instances = ig.set.instances.size();
  report.rule_findings = rules_result.findings.size();
  report.rule_errors = rules_result.errors;
  for (const auto& finding : rules_result.findings) {
    const auto category = category_of(finding);
    if (category == "consistency") ++report.consistency_findings;
    if (category == "lint") ++report.lint_findings;
  }

  auto root = Json::object();
  root.set("name", name);

  auto inventory = Json::object();
  inventory.set("routers", network.router_count());
  inventory.set("interfaces", network.interfaces().size());
  inventory.set("unnumbered", analysis::unnumbered_interface_count(network));
  inventory.set("links", network.links().size());
  inventory.set("instances", ig.set.instances.size());
  inventory.set("instance_edges", ig.edges.size());
  root.set("inventory", std::move(inventory));

  // Parse diagnostics, per router: what the lenient parser skipped. These
  // were historically dropped at the model boundary; an operator reading a
  // fleet report must see that config lines went unmodeled.
  report.parse_diagnostics = network.total_parse_diagnostics();
  auto diags_json = Json::object();
  diags_json.set("total", report.parse_diagnostics);
  auto diags_routers = Json::array();
  for (model::RouterId r = 0; r < network.router_count(); ++r) {
    const auto& router_diags = network.parse_diagnostics(r);
    if (router_diags.empty()) continue;
    auto entry = Json::object();
    entry.set("router", network.routers()[r].hostname);
    entry.set("count", router_diags.size());
    auto messages = Json::array();
    for (const auto& diag : router_diags) {
      auto m = Json::object();
      m.set("line", diag.line);
      m.set("message", diag.message);
      messages.push_back(std::move(m));
    }
    entry.set("messages", std::move(messages));
    diags_routers.push_back(std::move(entry));
  }
  diags_json.set("routers", std::move(diags_routers));
  root.set("parse_diagnostics", std::move(diags_json));

  auto census_json = Json::object();
  for (const auto& [type, count] : census) census_json.set(type, count);
  root.set("census", std::move(census_json));

  auto design = Json::object();
  design.set("archetype", report.archetype);
  design.set("bgp_instances", classification.features.bgp_instance_count);
  design.set("igp_instances", classification.features.igp_instance_count);
  design.set("staging_igp_instances",
             classification.features.staging_igp_instances);
  design.set("internal_as", classification.features.internal_as_count);
  design.set("external_ebgp", classification.features.external_ebgp_sessions);
  design.set("internal_ebgp", classification.features.internal_ebgp_sessions);
  root.set("design", std::move(design));

  // The consistency and lint sections keep their pre-engine shape (kind
  // strings equal the rule names), now derived from the unified run so
  // rdlint-disable suppressions apply here too.
  auto consistency_json = Json::array();
  for (const auto& finding : rules_result.findings) {
    if (category_of(finding) != "consistency") continue;
    auto f = Json::object();
    f.set("kind", name_of(finding));
    f.set("router_a", uid(finding.router));
    f.set("router_b", uid(finding.router_b));
    f.set("detail", finding.detail);
    if (finding.where.line != 0) f.set("line", finding.where.line);
    consistency_json.push_back(std::move(f));
  }
  root.set("consistency", std::move(consistency_json));

  std::map<std::string, std::size_t> lint_by_kind;
  for (const auto& finding : rules_result.findings) {
    if (category_of(finding) == "lint") ++lint_by_kind[name_of(finding)];
  }
  auto lint_json = Json::object();
  lint_json.set("total", report.lint_findings);
  for (const auto& [kind, count] : lint_by_kind) lint_json.set(kind, count);
  root.set("lint", std::move(lint_json));

  // The unified design-rule summary (per-rule counts; full findings with
  // provenance are the rdlint CLI's output).
  auto rules_json = Json::object();
  rules_json.set("total", rules_result.findings.size());
  rules_json.set("errors", rules_result.errors);
  rules_json.set("warnings", rules_result.warnings);
  rules_json.set("info", rules_result.infos);
  rules_json.set("suppressed", rules_result.suppressed);
  std::map<std::string, std::size_t> by_rule;
  for (const auto& finding : rules_result.findings) ++by_rule[finding.rule_id];
  auto by_rule_json = Json::object();
  for (const auto& [rule, count] : by_rule) by_rule_json.set(rule, count);
  rules_json.set("by_rule", std::move(by_rule_json));
  root.set("rules", std::move(rules_json));

  std::size_t internet_reaching = 0;
  std::size_t external_routes = 0;
  std::size_t total_routes = 0;
  for (std::uint32_t i = 0; i < ig.set.instances.size(); ++i) {
    if (reach.instance_reaches_internet(i)) ++internet_reaching;
    external_routes += reach.external_route_count(i);
    total_routes += reach.instance_routes(i).size();
  }
  report.internet_reaching_instances = internet_reaching;
  auto reach_json = Json::object();
  reach_json.set("internet_reaching_instances", internet_reaching);
  reach_json.set("external_routes", external_routes);
  reach_json.set("total_routes", total_routes);
  reach_json.set("announced_externally", reach.announced_externally().size());
  reach_json.set("iterations", reach.iterations_used());
  reach_json.set("converged", reach.converged());
  root.set("reachability", std::move(reach_json));

  // Intent assertions (§6.2), verified against the exact symbolic header
  // space. The section (and its metrics keys below) only appears when a
  // config declares "! rd-intent" lines, so intent-free reports are
  // byte-for-byte what they were before this analysis existed.
  const auto& intents = ctx.intents();  // computed once, by RD052
  std::size_t intents_holding = 0;
  if (!intents.empty()) {
    auto violations = Json::array();
    for (const auto& outcome : intents) {
      if (outcome.holds) {
        ++intents_holding;
        continue;
      }
      auto violation = Json::object();
      violation.set("intent", outcome.intent.describe());
      violation.set("witness", outcome.witness ? outcome.witness->describe()
                                               : std::string());
      violations.push_back(std::move(violation));
    }
    auto intents_json = Json::object();
    intents_json.set("declared", intents.size());
    intents_json.set("holding", intents_holding);
    intents_json.set("violations", std::move(violations));
    root.set("intents", std::move(intents_json));
  }

  // Route-redistribution dataflow summary (§6 redistribution glue). Like
  // "intents", the section only appears when there is something to say —
  // at least one cross-instance edge — so reports of single-instance
  // networks are byte-for-byte unchanged.
  if (!flow.edges().empty()) {
    std::size_t session_edges = 0;
    for (const auto& edge : flow.edges()) {
      if (edge.kind == analysis::DataflowEdge::Kind::kSession) {
        ++session_edges;
      }
    }
    auto flow_json = Json::object();
    flow_json.set("edges", flow.edges().size());
    flow_json.set("session_edges", session_edges);
    flow_json.set("facts", flow.fact_count());
    flow_json.set("loop_events", flow.loop_events().size());
    flow_json.set("iterations", flow.iterations());
    flow_json.set("converged", flow.converged());
    root.set("redistribution", std::move(flow_json));
  }

  // Deterministic per-network metrics (DESIGN.md §10): logical-event counts
  // computed from this network's results, never from the global obs
  // registry (whose totals depend on what else ran in the process) and
  // never wall times (which go solely to the trace file). Keys are emitted
  // pre-sorted, so serial and parallel reports stay byte-identical.
  auto metrics = Json::object();
  auto counters = Json::object();
  if (!flow.edges().empty()) {
    counters.set("dataflow.edges", flow.edges().size());
    counters.set("dataflow.facts", flow.fact_count());
    counters.set("dataflow.iterations", flow.iterations());
    counters.set("dataflow.loop_events", flow.loop_events().size());
  }
  counters.set("graph.instance_edges", ig.edges.size());
  counters.set("graph.instances", ig.set.instances.size());
  if (!intents.empty()) {
    counters.set("intents.declared", intents.size());
    counters.set("intents.holding", intents_holding);
  }
  counters.set("model.interfaces", network.interfaces().size());
  counters.set("model.links", network.links().size());
  counters.set("parse.diagnostics", report.parse_diagnostics);
  counters.set("parse.routers", network.router_count());
  counters.set("reachability.external_routes", external_routes);
  counters.set("reachability.iterations", reach.iterations_used());
  counters.set("reachability.routes", total_routes);
  counters.set("rules.errors", rules_result.errors);
  counters.set("rules.evaluated", engine.rules().size());
  counters.set("rules.findings", rules_result.findings.size());
  counters.set("rules.suppressed", rules_result.suppressed);
  counters.set("rules.warnings", rules_result.warnings);
  metrics.set("counters", std::move(counters));
  root.set("metrics", std::move(metrics));

  report.json = root.dump();
  report.instance_graph_dot = graph::to_dot(network, ig);
  return report;
}

std::vector<NetworkReport> analyze_fleet_parallel(
    const std::vector<FleetInput>& inputs, util::ThreadPool& pool) {
  // One task per network; each task runs the whole per-network pipeline
  // (parse serially within the task — the fleet-level fan-out already
  // saturates the pool). parallel_map merges reports in input index order.
  return util::parallel_map(pool, inputs, [](const FleetInput& input) {
    return analyze_network(input.name, build_network_serial(input.texts));
  });
}

}  // namespace rd::pipeline
