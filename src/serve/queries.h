#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/context.h"
#include "analysis/reachability.h"
#include "ip/ipv4.h"
#include "analysis/rules.h"
#include "graph/instances.h"
#include "model/network.h"
#include "util/thread_pool.h"

namespace rd::serve {

/// The re-entrant query entry points behind both the one-shot CLIs and the
/// rdd daemon (DESIGN.md §14): both load a network through
/// serve::load_fleet (service.h) and call the same bodies on what it
/// returns. Each function renders one complete report into a string using
/// util::appendf (vsnprintf — the same formatting engine printf uses), so
/// the daemon's response payload and the CLI's stdout are byte-identical by
/// construction; the differential tests and the CI smoke step `cmp` the
/// two. Every function is const over the model (safe to call concurrently
/// from many worker threads over one resident fleet) and deterministic:
/// identical inputs produce identical bytes at every thread count and
/// request interleaving.
struct QueryResult {
  std::string output;  // exact bytes the one-shot CLI writes to stdout
  std::string error;   // stderr-destined diagnostic (usage errors)
  int exit_code = 0;   // CLI exit-code contract: 0 ok, 1 findings, 2 usage
};

/// audit_network's full report: inventory, parse diagnostics, design
/// classification, vulnerability assessment, maintenance groupings,
/// completeness, filtering, IBGP, survivability sweep, route load, intent
/// assertions, and the design-rule summary. Exit 1 when any error-severity
/// rule finding exists. The route-load and intent sections and the design
/// rules read `ctx`'s fixpoint, verdicts and dataflow, building whichever
/// is not built yet; the what-if sweep counts one fixpoint of its own per
/// printed scenario, on that scenario's failure Problem (the intact
/// network's, re-closed without the failed router and masked).
QueryResult audit_report(const analysis::Context& ctx,
                         util::ThreadPool& pool);
/// The same report over a context of its own, built for this one call.
/// No product path calls it; benchmark/, bench/ and the tests do.
QueryResult audit_report(const model::Network& network,
                         const graph::InstanceGraph& ig,
                         util::ThreadPool& pool);

/// The survivability section alone (audit_network --whatif): articulation
/// routers plus the parallel single-failure sweep, which fails each
/// printed scenario's router in a Problem built from the intact network
/// (analysis::sweep_failure_scenarios).
QueryResult whatif_report(const model::Network& network,
                          const graph::InstanceGraph& ig,
                          util::ThreadPool& pool);

enum class LintFormat { kText, kJson, kSarif };
std::optional<LintFormat> lint_format_from(std::string_view name);

/// Render an already-computed rule-engine result exactly as rdlint prints
/// it (including the trailing newline of the json/sarif modes). The CLI
/// uses this after its own engine run (it needs the findings for baseline
/// and snapshot deltas) in every format; lint_report composes run + render
/// for the daemon.
std::string render_lint_report(const analysis::RuleEngine& engine,
                               const analysis::RuleEngine::Result& result,
                               const std::string& name, LintFormat format);

/// One finding, rdlint text style:
///   "  <prefix>[RDxxx][severity] file:line router: subject (with b): detail"
/// Exposed for rdlint's baseline section, which prefixes new findings.
void append_finding_line(std::string& out, const analysis::Finding& finding,
                         const char* prefix);

/// rdlint's single-network report in the requested format, the rules run
/// over `ctx`. `name` labels the report (the config directory's basename,
/// in the CLI and the daemon alike). Exit 1 when any error-severity finding
/// exists.
QueryResult lint_report(const analysis::Context& ctx,
                        const analysis::RuleEngine& engine,
                        const std::string& name, LintFormat format,
                        util::ThreadPool& pool);
/// The same report over a context of its own. Passing the already-built
/// instance graph skips rebuilding it; with nullptr one is built — the
/// findings are identical either way. No product path calls it;
/// benchmark/ and the tests do.
QueryResult lint_report(const model::Network& network,
                        const analysis::RuleEngine& engine,
                        const std::string& name, LintFormat format,
                        util::ThreadPool& pool,
                        const graph::InstanceGraph* graph = nullptr);

/// Instance whose covered interfaces contain the address, if any (-1 when
/// unattached) — the endpoint resolution reachability_report and the net15
/// case-study epilogue share.
std::int64_t instance_attached_to(const model::Network& network,
                                  const graph::InstanceSet& instances,
                                  ip::Ipv4Address addr);

/// One reachability_query invocation's worth of options.
struct ReachabilityRequest {
  bool symbolic = false;  // exact header-space mode (--symbolic)
  /// Endpoint pair (dotted quads). Both empty = the per-instance summary
  /// report (or, symbolic, the rd-intent verification report).
  std::string source;
  std::string destination;
  /// Demo-mode external-route injection (the net15 case study); empty for
  /// directory- and fleet-backed runs.
  std::vector<ip::Prefix> external_prefixes;
};

/// reachability_query's stdout for the requested mode. Unparseable
/// endpoint addresses yield exit 2 with the CLI's stderr text in `error`
/// (the daemon maps that to an error response). The convergence warning,
/// stderr-bound in the CLI, lands in `error` with exit 0. This overload
/// runs its own fixpoint and, in the symbolic mode with no pair, its own
/// intent verification. The context overload forwards a request with
/// `external_prefixes` here; otherwise benchmark/ and the tests call it.
QueryResult reachability_report(const model::Network& network,
                                const graph::InstanceSet& instances,
                                const ReachabilityRequest& request);
/// The same report reading `ctx`'s fixpoint and intent verdicts, so over a
/// resident fleet a pair query is a lookup. A request that adds
/// `external_prefixes` changes the fixpoint and goes to the overload above.
/// A symbolic pair still builds a HeaderSpace of its own: that object
/// memoizes per pair and is not thread-safe.
QueryResult reachability_report(const analysis::Context& ctx,
                                const ReachabilityRequest& request);

/// simulate_convergence's single-network report: the discrete-event
/// distance-vector convergence sweep (DESIGN.md §15) over the resident
/// fleet, one flap scenario per interesting single-router failure. `seed`
/// and `until_ms` mirror the CLI's --seed/--until; everything else stays
/// at the SweepOptions defaults so the daemon's bytes match
/// `simulate_convergence <dir> --seed N --until MS` exactly. Exit 1 when
/// any fixpoint cross-check mismatched, matching the CLI contract.
QueryResult simulate_report(const model::Network& network,
                            const graph::InstanceGraph& ig,
                            std::uint64_t seed, std::uint64_t until_ms,
                            util::ThreadPool& pool);

}  // namespace rd::serve
