#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/packet_reachability.h"
#include "analysis/reachability.h"
#include "graph/instances.h"
#include "model/header_predicate.h"
#include "model/network.h"
#include "model/policy.h"

namespace rd::analysis {

/// An operator intent as a machine-checkable assertion over a header
/// region: "no packet in this region gets through" (expect_reachable =
/// false, the net15 restricted-subnet property of paper §6.2) or "every
/// packet in it does". Usually collected from `! rd-intent` config
/// comments (config::IntentDirective); `router`/`line` carry provenance
/// for findings.
struct Intent {
  bool expect_reachable = false;
  ip::Prefix source;
  ip::Prefix destination;
  std::string protocol = "ip";  // "ip" = any protocol
  std::optional<std::uint16_t> port;  // absent = any port, incl. portless
  model::RouterId router = model::kInvalidId;
  std::size_t line = 0;

  std::string describe() const;
};

/// A concrete packet proving an intent violated: reachable for a deny
/// intent, unreachable for an allow intent. Deterministically the least
/// such header, so reports are byte-identical run to run.
struct IntentWitness {
  ip::Ipv4Address source;
  ip::Ipv4Address destination;
  std::string protocol;
  std::optional<std::uint16_t> port;

  std::string describe() const;
};

struct IntentOutcome {
  Intent intent;
  bool holds = false;
  std::optional<IntentWitness> witness;  // present iff !holds
};

/// Symbolic header-space reachability: the exact packet-set counterpart of
/// `PacketReachability`'s one-probe-at-a-time evaluation (ROADMAP item 5).
///
/// The analysis composes, per (ingress interface, egress interface) pair,
/// a `model::HeaderPredicate` of every header that passes all four modeled
/// obstacles — forward route, return route, inbound filter at the source
/// attachment, outbound filter at the destination attachment — lowering
/// the packet filters through `model::SymbolicPacketFilter` (cached on the
/// run's PolicyCompiler) and the route tables through minimal prefix
/// covers of the reachability fixpoint's per-instance route sets.
///
/// Every public method is a deterministic function of the network; the
/// class memoizes internally and is therefore NOT thread-safe — concurrent
/// callers each build their own instance, exactly like PolicyCompiler.
class HeaderSpace {
 public:
  HeaderSpace(const model::Network& network,
              const graph::InstanceSet& instances,
              const ReachabilityAnalysis& routes);

  /// The exact set of source addresses that attach at interface i: the
  /// interface subnet minus every more-specific subnet and minus equal
  /// subnets of lower-numbered interfaces (the concrete prober's
  /// most-specific-wins, first-wins-on-ties resolution, run on all
  /// addresses at once). Disjoint prefixes, sorted; empty when the
  /// interface has no subnet or is fully shadowed.
  const std::vector<ip::Prefix>& attachment_region(model::InterfaceId i) const;

  /// The interface whose attachment region contains `addr` — an
  /// independent twin of the concrete prober's attachment_of().
  std::optional<model::InterfaceId> attachment_interface(
      ip::Ipv4Address addr) const;

  /// Exact predicate of headers that flow from sources attached at
  /// `ingress` to destinations attached at `egress`. Normalized; memoized
  /// per pair. Emits the per-pair obs counters
  /// (headerspace.pairs / headerspace.atoms).
  const model::HeaderPredicate& pair_predicate(model::InterfaceId ingress,
                                               model::InterfaceId egress);

  /// Symbolic membership for one concrete header: true exactly when the
  /// concrete prober returns kPossiblyReachable — the differential
  /// contract the fuzz suite enforces.
  bool passes(const FlowQuery& query);

  /// Check intents against the computed header space.
  std::vector<IntentOutcome> verify(const std::vector<Intent>& intents);

  const model::ProtocolDomain& protocol_domain() const noexcept {
    return compiler_.protocol_domain();
  }

 private:
  /// Minimal prefix cover of the instance's non-default routes (lazy).
  const std::vector<ip::Prefix>& route_space(std::uint32_t instance);
  /// Instance serving an interface's attachment, -1 when none — mirror of
  /// the concrete prober's resolution.
  std::int64_t instance_of_interface(model::InterfaceId i) const;
  /// Pair predicate with an unattached destination (no egress interface):
  /// the destination-side checks vanish, exactly as in the concrete
  /// prober. The caller is responsible for only testing destinations
  /// outside every attachment region against it.
  const model::HeaderPredicate& unattached_predicate(
      model::InterfaceId ingress);

  model::HeaderPredicate build_pair(model::InterfaceId ingress,
                                    std::optional<model::InterfaceId> egress);
  const model::HeaderPredicate* inbound_filter(model::InterfaceId i);
  const model::HeaderPredicate* outbound_filter(model::InterfaceId i);

  const model::Network& network_;
  const graph::InstanceSet& instances_;
  const ReachabilityAnalysis& routes_;
  model::PolicyCompiler compiler_;
  std::vector<std::vector<ip::Prefix>> regions_;
  std::vector<std::optional<std::vector<ip::Prefix>>> route_spaces_;
  std::map<std::pair<model::InterfaceId, model::InterfaceId>,
           model::HeaderPredicate>
      pair_cache_;
  std::map<model::InterfaceId, model::HeaderPredicate> unattached_cache_;
};

/// Intents declared in `! rd-intent` comments across the network's
/// configs, routers in id order, directives in source order.
std::vector<Intent> collect_intents(const model::Network& network);

/// Convenience entry point: build a HeaderSpace and check `intents`
/// (`Context::intents()`, which the audit, the pipeline report and rule
/// RD052 share, goes through here).
std::vector<IntentOutcome> verify_intents(const model::Network& network,
                                          const graph::InstanceSet& instances,
                                          const ReachabilityAnalysis& routes,
                                          const std::vector<Intent>& intents);

}  // namespace rd::analysis
