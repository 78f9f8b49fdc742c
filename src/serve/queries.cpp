#include "serve/queries.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>

#include "analysis/archetype.h"
#include "analysis/census.h"
#include "analysis/context.h"
#include "analysis/filters.h"
#include "analysis/header_space.h"
#include "analysis/ibgp.h"
#include "analysis/packet_reachability.h"
#include "analysis/router_rib.h"
#include "analysis/vulnerability.h"
#include "analysis/whatif.h"
#include "config/ast.h"
#include "graph/address_space.h"
#include "ip/ipv4.h"
#include "obs/obs.h"
#include "sim/sweep.h"
#include "util/strings.h"
#include "util/table.h"

namespace rd::serve {

namespace {

using util::appendf;

/// How many single-failure scenarios the survivability section prints, and
/// so sweeps.
constexpr std::size_t kScenariosShown = 5;

/// The survivability section body (no leading blank line): articulation
/// routers plus the single-failure sweep. Shared verbatim by audit_report
/// (which precedes it with "\n") and whatif_report (which emits it alone).
void append_survivability(std::string& out, const model::Network& network,
                          const graph::InstanceGraph& ig,
                          util::ThreadPool& pool) {
  appendf(out, "=== Survivability (what-if) ===\n");
  const auto cuts = analysis::instance_articulation_routers(network, ig.set);
  appendf(out,
          "routers whose single failure splits their routing instance: "
          "%zu\n",
          cuts.size());
  for (std::size_t i = 0; i < cuts.size() && i < 5; ++i) {
    appendf(out, "  %s (instance %u)\n",
            network.routers()[cuts[i].router].hostname.c_str(),
            cuts[i].instance + 1);
  }
  auto scenarios = analysis::single_failure_scenarios(network, ig);
  if (!scenarios.empty()) {
    // Only the scenarios printed below are swept: impact i depends on
    // scenario i alone and lands in slot i, so dropping the rest cannot
    // change a printed byte.
    const std::size_t scenario_count = scenarios.size();
    scenarios.resize(std::min(scenario_count, kScenariosShown));
    const auto impacts = analysis::sweep_failure_scenarios(
        network, ig.set, scenarios, {}, pool);
    // No thread count in the line: output is byte-identical at every
    // concurrency level, and the daemon/CLI differential diffs it.
    appendf(out, "single-failure sweep: %zu scenarios\n", scenario_count);
    for (const auto& impact : impacts) {
      appendf(out,
              "  %s: instances %zu -> %zu, fragmented: %zu, "
              "reaching internet: %zu, announced: %zu%s\n",
              impact.scenario.name.c_str(),
              impact.structural.instances_before,
              impact.structural.instances_after,
              impact.structural.fragmented_instances.size(),
              impact.instances_reaching_internet, impact.announced_externally,
              impact.reachability_converged ? "" : " (NOT CONVERGED)");
    }
  }
}

}  // namespace

void append_finding_line(std::string& out, const analysis::Finding& finding,
                         const char* prefix) {
  const std::string with_b = finding.router_b_name.empty()
                                 ? std::string()
                                 : " (with " + finding.router_b_name + ")";
  appendf(out, "  %s[%s][%s] %s:%zu %s%s%s%s: %s\n", prefix,
          finding.rule_id.c_str(),
          std::string(analysis::severity_name(finding.severity)).c_str(),
          finding.where.file.c_str(), finding.where.line,
          finding.router_name.c_str(), finding.subject.empty() ? "" : ": ",
          finding.subject.c_str(), with_b.c_str(), finding.detail.c_str());
}

QueryResult audit_report(const model::Network& network,
                         const graph::InstanceGraph& ig,
                         util::ThreadPool& pool) {
  return audit_report(analysis::Context(network, ig), pool);
}

QueryResult audit_report(const analysis::Context& ctx,
                         util::ThreadPool& pool) {
  QueryResult qr;
  std::string& out = qr.output;
  const model::Network& network = ctx.network;
  const graph::InstanceGraph& ig = ctx.graph;

  // --- Inventory -----------------------------------------------------------
  appendf(out, "=== Inventory ===\n");
  appendf(out, "routers: %zu, interfaces: %zu (%zu unnumbered), links: %zu\n",
          network.router_count(), network.interfaces().size(),
          analysis::unnumbered_interface_count(network),
          network.links().size());
  util::Table census_table({"interface type", "count"});
  for (const auto& [type, count] : analysis::interface_census(network)) {
    census_table.add_row({type, util::fmt_int(static_cast<long long>(count))});
  }
  appendf(out, "%s\n", census_table.to_string().c_str());

  // --- Parse diagnostics ---------------------------------------------------
  // Lines the lenient parser skipped: the model above is built without
  // them, so a nonzero count means the audit is looking at a partial view.
  const auto total_diags = network.total_parse_diagnostics();
  appendf(out, "=== Parse diagnostics ===\n");
  appendf(out, "config lines skipped by the parser: %zu\n", total_diags);
  if (total_diags > 0) {
    std::size_t shown_diags = 0;
    for (model::RouterId r = 0; r < network.router_count() && shown_diags < 6;
         ++r) {
      for (const auto& diag : network.parse_diagnostics(r)) {
        if (shown_diags++ >= 6) break;
        appendf(out, "  %s line %zu: %s\n",
                network.routers()[r].hostname.c_str(), diag.line,
                diag.message.c_str());
      }
    }
    if (total_diags > shown_diags) {
      appendf(out, "  ... and %zu more\n", total_diags - shown_diags);
    }
  }
  appendf(out, "\n");

  // --- Design --------------------------------------------------------------
  // One span per section from here on, each ending where the next begins,
  // so a trace shows where the audit's time goes.
  std::optional<obs::Span> section;
  section.emplace("audit.address_structure", "audit");
  const auto structure = graph::extract_address_structure(network);
  section.emplace("audit.design", "audit");
  appendf(out, "=== Routing design ===\n");
  const auto cls = analysis::classify_design(network, ig.set);
  appendf(out, "classification: %s\n",
          std::string(analysis::to_string(cls.archetype)).c_str());
  appendf(out, "instances: %zu (BGP: %zu, staging: %zu), internal ASs: %zu\n",
          ig.set.instances.size(), cls.features.bgp_instance_count,
          cls.features.staging_igp_instances, cls.features.internal_as_count);

  appendf(out, "address-block plan (%zu root blocks):\n",
          structure.roots.size());
  for (const auto& block : structure.root_blocks()) {
    appendf(out, "  %s\n", block.to_string().c_str());
  }

  // --- Vulnerability assessment --------------------------------------------
  appendf(out, "\n=== Vulnerability assessment ===\n");
  const auto redundancy = analysis::redistribution_redundancy(network, ig);
  std::size_t spofs = 0;
  for (const auto& entry : redundancy) {
    if (entry.single_point_of_failure()) {
      ++spofs;
      appendf(out,
              "  SINGLE POINT OF FAILURE: route exchange between "
              "instance %u and instance %u relies on router %s alone\n",
              entry.instance_a + 1, entry.instance_b + 1,
              network.routers()[entry.connecting_routers[0]].hostname.c_str());
    }
  }
  appendf(out,
          "instance pairs exchanging routes: %zu, single points of "
          "failure: %zu\n",
          redundancy.size(), spofs);

  const auto backdoors = analysis::detect_backdoor_candidates(network, ig);
  if (backdoors.groups > 1) {
    appendf(out,
            "POTENTIAL BACKDOOR ROUTES: %zu internally-disconnected "
            "groups each reach the external world; traffic between "
            "them can only flow through the neighboring domains "
            "(paper 8.2)\n",
            backdoors.groups);
  }

  const auto unfiltered =
      analysis::find_unfiltered_external_connections(network);
  appendf(out, "unfiltered external connections: %zu\n", unfiltered.size());
  for (std::size_t i = 0; i < unfiltered.size() && i < 8; ++i) {
    const auto& finding = unfiltered[i];
    appendf(out, "  router %s, %s %s: %s%s\n",
            network.routers()[finding.router].hostname.c_str(),
            finding.kind ==
                    analysis::UnfilteredExternalConnection::Kind::kBgpSession
                ? "BGP neighbor"
                : "IGP edge interface",
            finding.detail.c_str(),
            finding.missing_route_filter ? "no route filter " : "",
            finding.missing_packet_filter ? "no packet filter" : "");
  }
  if (unfiltered.size() > 8) {
    appendf(out, "  ... and %zu more\n", unfiltered.size() - 8);
  }

  // --- Engineering / maintenance -------------------------------------------
  appendf(out, "\n=== Maintenance groupings ===\n");
  const auto shared = analysis::shared_static_destinations(network);
  appendf(out, "destinations with static routes on multiple routers: %zu\n",
          shared.size());
  for (std::size_t i = 0; i < shared.size() && i < 5; ++i) {
    appendf(out, "  %s on %zu routers (do not disable all at once)\n",
            shared[i].destination.to_string().c_str(),
            shared[i].routers.size());
  }

  const auto suspects = graph::detect_missing_routers(network, structure);
  appendf(out, "\n=== Data-set completeness ===\n");
  appendf(out, "interfaces that look like links to missing routers: %zu\n",
          suspects.size());
  for (std::size_t i = 0; i < suspects.size() && i < 5; ++i) {
    const auto& itf = network.interfaces()[suspects[i].interface];
    appendf(out, "  %s %s (%s): inside a %.0f%%-internal block\n",
            network.routers()[itf.router].hostname.c_str(), itf.name.c_str(),
            itf.address ? itf.address->to_string().c_str() : "?",
            suspects[i].internal_fraction * 100.0);
  }

  const auto filters = analysis::gather_filter_stats(network);
  appendf(out, "\n=== Packet filtering ===\n");
  appendf(out,
          "applied filter rules: %zu (%.0f%% on internal links), "
          "largest filter: %zu clauses\n",
          filters.total_applied_rules, filters.internal_fraction() * 100.0,
          filters.largest_filter_rules);

  // --- IBGP signaling (paper §3.1/§6.1 mesh-scalability concern) ------------
  appendf(out, "\n=== IBGP signaling ===\n");
  for (const auto& as_entry : analysis::analyze_ibgp(network, ig.set)) {
    if (as_entry.routers.size() < 2) continue;
    appendf(out, "AS %u: %zu routers, %zu sessions (%.0f%% of a full mesh)%s",
            as_entry.as_number, as_entry.routers.size(), as_entry.sessions,
            as_entry.mesh_completeness * 100.0,
            as_entry.uses_route_reflection() ? ", route reflection" : "");
    if (as_entry.disconnected_pairs > 0) {
      appendf(out, " — %zu SIGNALING HOLES", as_entry.disconnected_pairs);
    }
    if (!as_entry.isolated_routers.empty()) {
      appendf(out, " — %zu routers with no IBGP session",
              as_entry.isolated_routers.size());
    }
    appendf(out, "\n");
  }

  // --- Survivability (what-if, paper §8.1) ----------------------------------
  section.emplace("audit.survivability", "audit");
  appendf(out, "\n");
  append_survivability(out, network, ig, pool);

  // --- Route load (paper §2.3 / §6.2) ---------------------------------------
  section.emplace("audit.route_load", "audit");
  appendf(out, "\n=== Route load ===\n");
  const auto& reach = ctx.routes();
  if (const auto warning = reach.convergence_warning(); !warning.empty()) {
    appendf(out, "%s\n", warning.c_str());
  }
  const auto ribs = analysis::RouterRibAnalysis::run(network, ig.set, reach);
  const auto sizes = ribs.rib_sizes();
  std::size_t max_rib = 0;
  std::size_t total = 0;
  for (const auto s : sizes) {
    max_rib = std::max(max_rib, s);
    total += s;
  }
  appendf(out,
          "router RIBs: mean %.0f routes, max %zu; routers holding a "
          "default route: %zu of %zu\n",
          sizes.empty()
              ? 0.0
              : static_cast<double>(total) / static_cast<double>(sizes.size()),
          max_rib, ribs.routers_with_default_route().size(),
          network.router_count());

  // --- Intent assertions (§6.2 reachability questions, machine-checked
  // against the exact symbolic header space) ---------------------------------
  section.emplace("audit.intents", "audit");
  if (const auto& outcomes = ctx.intents(); !outcomes.empty()) {
    appendf(out, "\n=== Intent assertions ===\n");
    std::size_t held = 0;
    for (const auto& outcome : outcomes) {
      if (outcome.holds) ++held;
    }
    appendf(out, "declared rd-intent assertions: %zu, holding: %zu\n",
            outcomes.size(), held);
    for (const auto& outcome : outcomes) {
      if (outcome.holds) continue;
      appendf(out, "  VIOLATED: %s", outcome.intent.describe().c_str());
      if (outcome.witness) {
        appendf(out, " — witness packet %s",
                outcome.witness->describe().c_str());
      }
      appendf(out, "\n");
    }
  }

  // --- Design rules (paper §8: lint, consistency, vulnerability, and the
  // cross-router rules, unified under one registry with provenance) ----------
  section.emplace("audit.rules", "audit");
  appendf(out, "\n=== Design rules ===\n");
  static const auto engine = analysis::RuleEngine::with_default_rules();
  const auto rules = engine.run(ctx, pool);
  appendf(out,
          "findings: %zu (%zu errors, %zu warnings, %zu info), "
          "suppressed: %zu\n",
          rules.findings.size(), rules.errors, rules.warnings, rules.infos,
          rules.suppressed);
  std::map<std::string, std::size_t> by_rule;
  for (const auto& finding : rules.findings) ++by_rule[finding.rule_id];
  for (const auto& [rule, count] : by_rule) {
    const auto* info = engine.find(rule);
    appendf(out, "  %-6s %-36s %-8s %zu\n", rule.c_str(),
            info != nullptr ? info->name.c_str() : "?",
            info != nullptr
                ? std::string(analysis::severity_name(info->severity)).c_str()
                : "?",
            count);
  }
  std::size_t shown = 0;
  for (const auto& finding : rules.findings) {
    if (finding.severity == analysis::Severity::kInfo || shown >= 8) continue;
    ++shown;
    appendf(out, "  [%s] %s:%zu %s: %s: %s\n", finding.rule_id.c_str(),
            finding.where.file.c_str(), finding.where.line,
            finding.router_name.c_str(), finding.subject.c_str(),
            finding.detail.c_str());
  }
  if (rules.has_errors()) {
    appendf(out,
            "\n%zu error-severity finding(s) — exiting nonzero "
            "(see --help for the exit-code contract)\n",
            rules.errors);
    qr.exit_code = 1;
  }
  return qr;
}

QueryResult whatif_report(const model::Network& network,
                          const graph::InstanceGraph& ig,
                          util::ThreadPool& pool) {
  QueryResult qr;
  append_survivability(qr.output, network, ig, pool);
  return qr;
}

std::optional<LintFormat> lint_format_from(std::string_view name) {
  if (name == "text" || name.empty()) return LintFormat::kText;
  if (name == "json") return LintFormat::kJson;
  if (name == "sarif") return LintFormat::kSarif;
  return std::nullopt;
}

std::string render_lint_report(const analysis::RuleEngine& engine,
                               const analysis::RuleEngine::Result& result,
                               const std::string& name, LintFormat format) {
  std::string out;
  if (format == LintFormat::kSarif) {
    appendf(out, "%s\n", analysis::findings_to_sarif(engine, result).c_str());
  } else if (format == LintFormat::kJson) {
    appendf(out, "%s\n",
            analysis::findings_to_json(engine, result, name).c_str());
  } else {
    appendf(out,
            "rdlint: %s: %zu finding(s) (%zu errors, %zu warnings, "
            "%zu info), %zu suppressed\n",
            name.c_str(), result.findings.size(), result.errors,
            result.warnings, result.infos, result.suppressed);
    for (const auto& finding : result.findings) {
      append_finding_line(out, finding, "");
    }
  }
  return out;
}

QueryResult lint_report(const analysis::Context& ctx,
                        const analysis::RuleEngine& engine,
                        const std::string& name, LintFormat format,
                        util::ThreadPool& pool) {
  QueryResult qr;
  const auto result = engine.run(ctx, pool);
  qr.output = render_lint_report(engine, result, name, format);
  qr.exit_code = result.has_errors() ? 1 : 0;
  return qr;
}

QueryResult lint_report(const model::Network& network,
                        const analysis::RuleEngine& engine,
                        const std::string& name, LintFormat format,
                        util::ThreadPool& pool,
                        const graph::InstanceGraph* graph) {
  std::optional<graph::InstanceGraph> built;
  if (graph == nullptr) {
    graph = &built.emplace(graph::InstanceGraph::build(network));
  }
  return lint_report(analysis::Context(network, *graph), engine, name,
                     format, pool);
}

std::int64_t instance_attached_to(const model::Network& network,
                                  const graph::InstanceSet& instances,
                                  ip::Ipv4Address addr) {
  for (std::uint32_t i = 0; i < instances.instances.size(); ++i) {
    for (const auto p : instances.instances[i].processes) {
      for (const auto itf : network.processes()[p].covered_interfaces) {
        const auto& subnet = network.interfaces()[itf].subnet;
        if (subnet && subnet->contains(addr)) return i;
      }
    }
  }
  return -1;
}

namespace {

/// The one body of both reachability_report overloads. `routes()` yields
/// the baseline fixpoint and `intents()` the verdict of every declared
/// "! rd-intent" (empty when none is declared). Each is called only by the
/// modes that read it, so a usage error computes nothing.
template <typename Routes, typename Intents>
QueryResult reachability_over(const model::Network& network,
                              const graph::InstanceSet& instances,
                              const ReachabilityRequest& request,
                              const Routes& routes, const Intents& intents) {
  QueryResult qr;
  std::string& out = qr.output;

  const bool pair = !request.source.empty() && !request.destination.empty();
  if (!pair && (!request.source.empty() || !request.destination.empty())) {
    qr.error = "reachability wants both a source and a destination\n";
    qr.exit_code = 2;
    return qr;
  }

  const analysis::ReachabilityAnalysis& reach = routes();
  if (const auto warning = reach.convergence_warning(); !warning.empty()) {
    qr.error += warning;
    qr.error += "\n";
  }

  // --- Symbolic header-space mode -------------------------------------------
  if (request.symbolic) {
    if (pair) {
      const auto a = ip::Ipv4Address::parse(request.source);
      const auto b = ip::Ipv4Address::parse(request.destination);
      if (!a || !b) {
        qr.error += "bad addresses\n";
        qr.exit_code = 2;
        return qr;
      }
      // Built per request: a HeaderSpace memoizes pair predicates and may
      // not be shared between threads.
      analysis::HeaderSpace space(network, instances, reach);
      const auto ingress = space.attachment_interface(*a);
      const auto egress = space.attachment_interface(*b);
      if (!ingress || !egress) {
        appendf(out,
                "%s attached: %s, %s attached: %s — unattached "
                "endpoints pass no packets\n",
                request.source.c_str(), ingress ? "yes" : "NO",
                request.destination.c_str(), egress ? "yes" : "NO");
        return qr;
      }
      const auto itf_name = [&](model::InterfaceId id) {
        const auto& itf = network.interfaces()[id];
        return network.routers()[itf.router].hostname + " " + itf.name;
      };
      appendf(out, "%s enters at %s; %s sits behind %s\n",
              request.source.c_str(), itf_name(*ingress).c_str(),
              request.destination.c_str(), itf_name(*egress).c_str());
      const auto& predicate = space.pair_predicate(*ingress, *egress);
      appendf(out,
              "exact packet set passing that ingress/egress pair "
              "(%zu atoms):\n",
              predicate.atom_count());
      appendf(out, "%s", predicate.to_string(space.protocol_domain()).c_str());
      analysis::FlowQuery query;
      query.source = *a;
      query.destination = *b;
      const analysis::PacketReachability concrete(network, instances, reach);
      appendf(out,
              "plain ip packet %s -> %s: %s (symbolic) / %s (concrete "
              "probe)\n",
              request.source.c_str(), request.destination.c_str(),
              space.passes(query) ? "passes" : "blocked",
              std::string(to_string(concrete.evaluate(query))).c_str());
      return qr;
    }
    // No explicit pair: check every "! rd-intent" assertion in the configs.
    const std::vector<analysis::IntentOutcome>& outcomes = intents();
    if (outcomes.empty()) {
      appendf(out,
              "no \"! rd-intent\" assertions declared in these "
              "configs; nothing to verify\n");
      return qr;
    }
    std::size_t held = 0;
    for (const auto& outcome : outcomes) {
      if (outcome.holds) ++held;
    }
    appendf(out, "intent assertions: %zu, holding: %zu\n", outcomes.size(),
            held);
    for (const auto& outcome : outcomes) {
      if (outcome.holds) {
        appendf(out, "  ok: %s\n", outcome.intent.describe().c_str());
        continue;
      }
      appendf(out, "  VIOLATED: %s", outcome.intent.describe().c_str());
      if (outcome.witness) {
        appendf(out, " — witness packet %s",
                outcome.witness->describe().c_str());
      }
      appendf(out, "\n");
    }
    return qr;
  }

  // Optional query: two addresses.
  if (pair) {
    const auto a = ip::Ipv4Address::parse(request.source);
    const auto b = ip::Ipv4Address::parse(request.destination);
    if (!a || !b) {
      qr.error += "bad addresses\n";
      qr.exit_code = 2;
      return qr;
    }
    const auto ia = instance_attached_to(network, instances, *a);
    const auto ib = instance_attached_to(network, instances, *b);
    if (ia < 0 || ib < 0) {
      appendf(out, "address not attached to any routing instance\n");
      return qr;
    }
    appendf(out, "%s is attached to instance %lld; %s to instance %lld\n",
            request.source.c_str(), static_cast<long long>(ia + 1),
            request.destination.c_str(), static_cast<long long>(ib + 1));
    appendf(out, "%s -> %s: %s\n", request.source.c_str(),
            request.destination.c_str(),
            reach.instance_has_route_to(static_cast<std::uint32_t>(ia), *b)
                ? "route present"
                : "NO ROUTE");
    appendf(out, "%s -> %s: %s\n", request.destination.c_str(),
            request.source.c_str(),
            reach.instance_has_route_to(static_cast<std::uint32_t>(ib), *a)
                ? "route present"
                : "NO ROUTE");
    appendf(out, "two-way communication possible: %s\n",
            reach.two_way_reachable(static_cast<std::uint32_t>(ia), *a,
                                    static_cast<std::uint32_t>(ib), *b)
                ? "yes"
                : "no");
    return qr;
  }

  // Default report: per-instance route table sizes and Internet access.
  appendf(out,
          "per-instance reachability after policy-aware propagation "
          "(%zu fixpoint iterations):\n\n",
          reach.iterations_used());
  for (std::uint32_t i = 0; i < instances.instances.size(); ++i) {
    const auto& inst = instances.instances[i];
    appendf(out, "instance %u: %s", i + 1,
            std::string(config::to_keyword(inst.protocol)).c_str());
    if (inst.bgp_as) appendf(out, " AS %u", *inst.bgp_as);
    appendf(out, ", %zu routers\n", inst.router_count());
    appendf(out,
            "  routes: %zu (external-origin: %zu), reaches Internet at "
            "large: %s\n",
            reach.instance_routes(i).size(), reach.external_route_count(i),
            reach.instance_reaches_internet(i) ? "yes" : "no");
  }

  appendf(out, "\nprefixes announced to the external world: %zu\n",
          reach.announced_externally().size());
  std::size_t shown = 0;
  for (const auto& route : reach.announced_externally()) {
    if (++shown > 10) {
      appendf(out, "  ...\n");
      break;
    }
    appendf(out, "  %s\n", route.prefix.to_string().c_str());
  }
  return qr;
}

}  // namespace

QueryResult reachability_report(const model::Network& network,
                                const graph::InstanceSet& instances,
                                const ReachabilityRequest& request) {
  std::optional<analysis::ReachabilityAnalysis> own;
  const auto routes = [&]() -> const analysis::ReachabilityAnalysis& {
    if (!own) {
      analysis::ReachabilityAnalysis::Options options;
      options.external_prefixes = request.external_prefixes;
      own.emplace(
          analysis::ReachabilityAnalysis::run(network, instances, options));
    }
    return *own;
  };
  std::vector<analysis::IntentOutcome> verdicts;
  const auto intents = [&]() -> const std::vector<analysis::IntentOutcome>& {
    const auto declared = analysis::collect_intents(network);
    if (!declared.empty()) {
      verdicts =
          analysis::verify_intents(network, instances, routes(), declared);
    }
    return verdicts;
  };
  return reachability_over(network, instances, request, routes, intents);
}

QueryResult reachability_report(const analysis::Context& ctx,
                                const ReachabilityRequest& request) {
  if (!request.external_prefixes.empty()) {
    return reachability_report(ctx.network, ctx.graph.set, request);
  }
  return reachability_over(
      ctx.network, ctx.graph.set, request,
      [&]() -> const analysis::ReachabilityAnalysis& { return ctx.routes(); },
      [&]() -> const std::vector<analysis::IntentOutcome>& {
        return ctx.intents();
      });
}

QueryResult simulate_report(const model::Network& network,
                            const graph::InstanceGraph& ig,
                            std::uint64_t seed, std::uint64_t until_ms,
                            util::ThreadPool& pool) {
  QueryResult qr;
  sim::SweepOptions options;
  options.seed = seed;
  options.until_ms = until_ms;
  qr.output = sim::simulate_report(network, ig, options, pool);
  qr.exit_code = qr.output.find("MISMATCH") == std::string::npos ? 0 : 1;
  return qr;
}

}  // namespace rd::serve
