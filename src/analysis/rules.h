#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/context.h"
#include "graph/instances.h"
#include "model/network.h"
#include "util/thread_pool.h"

namespace rd::analysis {

/// The unified design-rule engine (paper §8: using the routing design
/// model "to perform static analysis of a network's routing design" —
/// checking it "for common errors or vulnerabilities"). Every static check
/// in the repository — lint, cross-router consistency, vulnerability
/// assessment, and the §8 cross-router design rules — is registered here
/// under a stable `RDnnn` identifier with a severity, and produces
/// `Finding`s that carry source provenance (config file + 1-based line).
///
/// Rule-id blocks: RD001-RD019 per-router lint, RD020-RD029 cross-router
/// consistency, RD030-RD039 vulnerability assessment, RD040-RD049
/// cross-router design rules, RD050-RD059 symbolic header-space rules
/// (exact-set shadowing / dead-clause / intent checks), RD060-RD069
/// instance-graph dataflow rules (redistribution safety). Ids are
/// append-only: a retired rule's id is never reused, so baselines and
/// suppression comments stay meaningful across versions.

enum class Severity : std::uint8_t { kInfo, kWarning, kError };

/// "info" / "warning" / "error" — also the spelling used in report JSON.
std::string_view severity_name(Severity severity) noexcept;

/// SARIF 2.1.0 `level` for a severity ("note" / "warning" / "error").
std::string_view severity_sarif_level(Severity severity) noexcept;

/// Where a finding points in the source text. `file` is the router's
/// source_file (hostname when the config never touched disk); `line` is
/// 1-based, 0 = no specific line.
struct SourceRef {
  std::string file;
  std::size_t line = 0;
};

/// One design-rule violation. Rule functions fill in router / router_b /
/// subject / detail / where.line; the engine stamps rule_id, severity,
/// router names, and where.file afterwards, so rules cannot disagree with
/// their registration.
struct Finding {
  std::string rule_id;  // "RD007"
  Severity severity = Severity::kWarning;
  model::RouterId router = model::kInvalidId;
  /// Second router involved, for cross-router findings (kInvalidId if n/a).
  model::RouterId router_b = model::kInvalidId;
  std::string router_name;    // hostname of `router` ("" if network-wide)
  std::string router_b_name;  // hostname of `router_b` ("" if n/a)
  std::string subject;        // ACL id / neighbor address / instance pair
  std::string detail;         // human-readable explanation
  SourceRef where;            // anchored in `router`'s config
};

/// Stable fingerprint for baseline comparison: rule id, router, subject,
/// and detail — deliberately excluding file and line, so reformatting a
/// config does not turn every old finding into a "new" one.
std::string finding_fingerprint(const Finding& finding);

/// Registration-time metadata for one rule.
struct RuleInfo {
  std::string id;        // "RD001" — stable across releases
  std::string name;      // kebab-case short name, e.g. "multi-policy-filter"
  std::string category;  // "lint" | "consistency" | "vulnerability" | ...
  Severity severity = Severity::kWarning;
  std::string description;  // one sentence, imperative mood
  std::string paper;        // paper section(s) motivating the rule
};

class RuleEngine {
 public:
  /// A rule body: examine the network's context, emit findings. Must be
  /// pure — rules run concurrently over the shared, immutable context.
  using RuleFn = std::function<std::vector<Finding>(const Context&)>;

  struct Rule {
    RuleInfo info;
    RuleFn fn;
  };

  /// Wall time and yield of one rule in one run. Timings are measured with
  /// steady_clock and are therefore nondeterministic; they are reported via
  /// `rdlint --timings` and the bench, never serialized into report JSON
  /// (which must stay byte-identical between serial and parallel runs).
  struct RuleTiming {
    std::string rule_id;
    double millis = 0.0;
    std::size_t findings = 0;  // before suppression
  };

  struct Result {
    /// All findings, suppressions applied, ordered by rule registration
    /// order and, within a rule, by the rule's own (deterministic) emission
    /// order — identical for serial and parallel runs.
    std::vector<Finding> findings;
    std::vector<RuleTiming> timings;  // one entry per registered rule
    std::size_t suppressed = 0;       // dropped by rdlint-disable comments
    std::size_t errors = 0;
    std::size_t warnings = 0;
    std::size_t infos = 0;

    bool has_errors() const noexcept { return errors > 0; }
  };

  /// An engine with every built-in rule registered (RD001..RD064).
  static RuleEngine with_default_rules();

  void add(RuleInfo info, RuleFn fn);

  const std::vector<Rule>& rules() const noexcept { return rules_; }

  /// Metadata for a rule id, or nullptr when unknown.
  const RuleInfo* find(std::string_view id) const noexcept;

  /// The one evaluation path: each rule is one task on `pool`, all over
  /// `context`, so they share its facts. Findings merge in registration
  /// order: byte-identical at every pool size (one thread: the serial loop).
  Result run(const Context& context, util::ThreadPool& pool) const;
  /// Same, over a fresh context (building the instance graph if not given).
  Result run(const model::Network& network, util::ThreadPool& pool) const;
  Result run(const model::Network& network, const graph::InstanceGraph& graph,
             util::ThreadPool& pool) const;

 private:
  std::vector<Rule> rules_;
};

/// Report serializers. Both are deterministic functions of the findings
/// (timings excluded), so serial and parallel runs serialize identically.
///
/// JSON layout:
///   {"tool": "rdlint", "network": ..., "summary": {...},
///    "findings": [{"rule", "name", "severity", "router", "router_b"?,
///                  "file", "line", "subject", "detail", "fingerprint"}]}
std::string findings_to_json(const RuleEngine& engine, const RuleEngine::Result& result,
                             std::string_view network_name, int indent = 2);

/// SARIF 2.1.0 (static-analysis interchange): one run, one driver
/// ("rdlint"), one reportingDescriptor per registered rule, one result per
/// finding with physical location and partial fingerprint.
std::string findings_to_sarif(const RuleEngine& engine,
                              const RuleEngine::Result& result,
                              int indent = 2);

/// Classification of a run against a previously saved report
/// (`rdlint --baseline old.json`): which findings are new, which persist,
/// and which baseline findings have disappeared (fixed). Matching is by
/// `finding_fingerprint`, set semantics.
struct BaselineDelta {
  std::vector<Finding> new_findings;
  std::vector<Finding> unchanged;
  std::vector<std::string> fixed;  // fingerprints present only in baseline
};

/// Extract the fingerprints from a report previously written by
/// `findings_to_json`. std::nullopt when the text is not such a report.
std::optional<std::vector<std::string>> baseline_fingerprints(
    std::string_view json_text);

BaselineDelta diff_against_baseline(const std::vector<Finding>& current,
                                    const std::vector<std::string>& baseline);

}  // namespace rd::analysis
