#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "config/ast.h"
#include "graph/instances.h"
#include "ip/ipv4.h"
#include "model/network.h"
#include "model/policy.h"

namespace rd::model {
/// Ordering for routes (sorted route vectors, std::set in the oracle).
inline bool operator<(const Route& a, const Route& b) noexcept {
  if (a.prefix != b.prefix) return a.prefix < b.prefix;
  return a.tag < b.tag;
}
}  // namespace rd::model

namespace rd::analysis::prop {

/// Shared route-propagation machinery: the resolved rule set ("Problem"),
/// the fixpoint engine that evaluates it, the compiled policy chains, and
/// the interned route domain. `ReachabilityAnalysis` is the static
/// consumer; `rd::sim` replays the same Problem as a timed discrete-event
/// process, which is why every element carries the router that owns it —
/// failing a router masks exactly the elements it owns.

/// Outbound/inbound policy of one BGP session endpoint, resolved in the
/// endpoint router's config.
struct SessionPolicy {
  const config::RouterConfig* config = nullptr;
  const config::BgpNeighbor* neighbor = nullptr;
};

/// A route present in an instance from the start: interface/network-stanza
/// origination or local-RIB redistribution. `router` is the originating
/// router — when it fails, this seed disappears.
struct Seed {
  std::uint32_t instance = 0;
  model::RouterId router = model::kInvalidId;
  model::Route route;
};

struct InternalFlow {
  std::uint32_t from_instance = 0;
  std::uint32_t to_instance = 0;
  SessionPolicy sender_out;  // policy at the sending end
  SessionPolicy receiver_in;
  model::RouterId from_router = model::kInvalidId;  // sending endpoint
  model::RouterId to_router = model::kInvalidId;    // receiving endpoint
};

struct ExternalEndpoint {
  std::uint32_t instance = 0;
  SessionPolicy policy;
  model::RouterId router = model::kInvalidId;
};

/// External IGP adjacencies also exchange routes with the world; stanza
/// distribute-lists are their only policy hook.
struct ExternalIgpEndpoint {
  std::uint32_t instance = 0;
  const config::RouterConfig* config = nullptr;
  const config::RouterStanza* stanza = nullptr;
  model::RouterId router = model::kInvalidId;
};

struct AggregatePoint {
  std::uint32_t instance = 0;
  ip::Prefix prefix;
  model::RouterId router = model::kInvalidId;
};

/// A kProcess redistribution edge with its policy context resolved.
struct RedistEdge {
  std::uint32_t from_instance = 0;
  std::uint32_t to_instance = 0;
  const config::RouterConfig* config = nullptr;
  const config::RouterStanza* stanza = nullptr;  // target stanza
  const std::optional<std::string>* route_map = nullptr;
  model::RouterId router = model::kInvalidId;  // the redistributing router
  std::size_t line = 0;  // 1-based line of the "redistribute" command
};

/// The propagation rules resolved once — seeds, edges, endpoints — so every
/// evaluator (the engine below, the simulator, the naïve oracle in
/// tests/fixpoint_reference.h) differs only in evaluation strategy. Policy
/// pointers reference the network's configs; a Problem must not outlive
/// its Network.
struct Problem {
  std::size_t instance_count = 0;
  std::size_t max_iterations = 0;
  std::vector<Seed> seeds;      // origination + local RIB
  std::vector<model::Route> universe;  // external offers, ascending by prefix
  std::vector<InternalFlow> flows;
  std::vector<ExternalEndpoint> external_endpoints;
  std::vector<ExternalIgpEndpoint> external_igp_endpoints;
  std::vector<AggregatePoint> aggregate_points;
  std::vector<RedistEdge> redist_edges;
};

struct DiscoverOptions {
  std::size_t max_iterations = 64;  // fixpoint guard
  /// When set, only these external endpoints inject routes (see
  /// ReachabilityAnalysis::Options::active_external_endpoints).
  std::optional<std::vector<std::size_t>> active_external_endpoints;
};

Problem discover(const model::Network& network,
                 const graph::InstanceSet& instances,
                 const DiscoverOptions& options,
                 const std::vector<ip::Prefix>& external_origin);

/// The Problem with every element owned by a failed router removed (flows
/// need both endpoints alive). `failed` must be sorted ascending. Universe
/// and instance count are unchanged: masking only removes derivations, so
/// the masked fixpoint is a subset of the baseline's route domain — the
/// property the simulator's fixed interned domain relies on.
Problem masked(const Problem& problem,
               const std::vector<model::RouterId>& failed);

/// External offer universe for a network: default route + every prefix the
/// network's own policies mention + caller extras, minus internal subnets.
/// Sorted ascending, deduplicated.
std::vector<ip::Prefix> external_universe(
    const model::Network& network, const std::vector<ip::Prefix>& extra);

struct FixpointResult {
  std::vector<std::vector<model::Route>> routes;  // per instance, sorted
  std::vector<model::Route> announced;            // sorted
  std::size_t iterations = 0;
  bool converged = true;
};

/// The semi-naïve fixpoint before materialization: the interned route
/// domain and membership bitmaps over its positions. Bit `p` of a bitmap
/// is set when the set holds `domain[p]`; bitmaps are sized lazily, so
/// words past a bitmap's end read as zero. A consumer that needs only
/// counts reads them here (`held_count`) instead of sorting out every route.
struct Propagation {
  std::vector<model::Route> domain;  // the offers first, ascending
  std::size_t offer_count = 0;       // the offers' share of `domain`
  std::vector<std::vector<std::uint64_t>> member;  // per instance
  std::vector<std::uint64_t> announced;
  std::size_t iterations = 0;
  bool converged = true;
};

/// The number of routes a membership bitmap holds.
std::size_t held_count(const std::vector<std::uint64_t>& bits) noexcept;

/// Whether a membership bitmap holds domain position `pos`.
inline bool holds(const std::vector<std::uint64_t>& bits,
                  std::uint32_t pos) noexcept {
  return (pos >> 6) < bits.size() && ((bits[pos >> 6] >> (pos & 63)) & 1);
}

/// The delta-driven evaluator: bitmap membership over the interned route
/// domain, per-edge offered cursors, and a dirty-instance worklist, then
/// the announce pass. Each edge evaluates each source route exactly once
/// over the run, through policies compiled once up front. A `shuffle_seed`
/// permutes the edge-processing order; the fixpoint is confluent, so
/// results are unaffected, which the differential tests check over many
/// seeds.
Propagation propagate(const Problem& problem,
                      std::optional<std::uint64_t> shuffle_seed);

/// The sorted route vectors of a propagation's bitmaps.
FixpointResult materialize(const Propagation& propagation);

/// materialize(propagate(problem, shuffle_seed)).
FixpointResult run_semi_naive(const Problem& problem,
                              std::optional<std::uint64_t> shuffle_seed);

// --- Compiled policy chains --------------------------------------------------

/// One direction of a BGP session's policy chain, lowered to compiled
/// matchers. Null members mean "permit" — absent filters and dangling name
/// references alike, matching the interpreting oracle exactly.
struct CompiledSessionDir {
  const model::CompiledAclFilter* distribute_list = nullptr;
  const model::CompiledPrefixList* prefix_list = nullptr;
  const model::CompiledRouteMap* route_map = nullptr;

  bool permits(const model::Route& route) const {
    if (distribute_list && !distribute_list->permits_route(route)) {
      return false;
    }
    if (prefix_list && !prefix_list->permits_route(route)) return false;
    if (route_map && !route_map->evaluate(route).permitted) return false;
    return true;
  }

  /// No filters in this direction: permits() is constant-true, so bulk
  /// paths may skip per-route evaluation entirely.
  bool trivially_permits() const noexcept {
    return distribute_list == nullptr && prefix_list == nullptr &&
           route_map == nullptr;
  }
};

CompiledSessionDir compile_session_dir(model::PolicyCompiler& compiler,
                                       const SessionPolicy& policy,
                                       bool inbound);

/// Stanza distribute-lists of one direction; unresolvable ACL references
/// permit (as distribute_list_permits does) and are simply dropped.
struct CompiledStanzaDir {
  std::vector<const model::CompiledAclFilter*> acls;

  bool permits(const model::Route& route) const {
    for (const auto* acl : acls) {
      if (!acl->permits_route(route)) return false;
    }
    return true;
  }

  bool trivially_permits() const noexcept { return acls.empty(); }
};

CompiledStanzaDir compile_stanza_dir(model::PolicyCompiler& compiler,
                                     const config::RouterConfig& config,
                                     const config::RouterStanza& stanza,
                                     bool inbound);

// --- Interned route domain ---------------------------------------------------

/// A Route packed into two integers, the probe unit of the membership
/// index and the sort key of the final per-instance sorts. The packing is
/// order-isomorphic to Route's ordering — Prefix's default `<=>` compares
/// (length_, network_) in declaration order, hence `prefix_key = length·2³²
/// + network`, and optional<tag> ordering (nullopt first) maps to `tag_key
/// = 0 | 1 + tag` — so comparing keys gives exactly the Route order, in
/// two branchless integer compares instead of walking optional<>.
struct RouteKey {
  std::uint64_t prefix_key = 0;  // (length << 32) | network
  std::uint64_t tag_key = 0;     // 0 = untagged, else 1 + tag

  friend bool operator==(const RouteKey&, const RouteKey&) = default;
  friend bool operator<(const RouteKey& a, const RouteKey& b) noexcept {
    return a.prefix_key != b.prefix_key ? a.prefix_key < b.prefix_key
                                        : a.tag_key < b.tag_key;
  }
};

inline std::uint64_t prefix_key_of(const model::Route& route) noexcept {
  return (static_cast<std::uint64_t>(route.prefix.length()) << 32) |
         route.prefix.network().value();
}

inline RouteKey route_key(const model::Route& route) noexcept {
  return {prefix_key_of(route), route.tag ? 1ULL + *route.tag : 0ULL};
}

inline std::size_t key_hash(const RouteKey& key) noexcept {
  std::uint64_t h = key.prefix_key * 0x9e3779b97f4a7c15ULL + key.tag_key;
  h ^= h >> 32;
  h *= 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  return static_cast<std::size_t>(h);
}

/// Interning table over the run's route domain: key -> position, with
/// insert-or-get and growth. One instance shared by the whole run, so its
/// slots stay cache-resident; per-instance state is then just a bitmap
/// over positions. Positions are dense and assigned in first-seen order —
/// the caller keeps the position -> Route table.
class DomainIndex {
 public:
  explicit DomainIndex(std::size_t expected) {
    std::size_t want = 16;
    while (want * 3 < expected * 4) want *= 2;
    slots_.assign(want, Slot{{kEmpty, 0}, 0});
  }

  /// Position of `key`, or `next` after binding key -> next when absent.
  std::uint32_t insert(const RouteKey& key, std::uint32_t next) {
    if ((count_ + 1) * 4 > slots_.size() * 3) rehash(slots_.size() * 2);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = key_hash(key) & mask;
    while (slots_[i].key.prefix_key != kEmpty) {
      if (slots_[i].key == key) return slots_[i].pos;
      i = (i + 1) & mask;
    }
    slots_[i] = {key, next};
    ++count_;
    return next;
  }

 private:
  /// No real key reaches this: prefix_key ≤ (32 << 32) | 0xFFFFFFFF.
  static constexpr std::uint64_t kEmpty = ~0ULL;
  struct Slot {
    RouteKey key;
    std::uint32_t pos = 0;
  };

  void rehash(std::size_t want) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(want, Slot{{kEmpty, 0}, 0});
    const std::size_t mask = want - 1;
    for (const Slot& slot : old) {
      if (slot.key.prefix_key == kEmpty) continue;
      std::size_t i = key_hash(slot.key) & mask;
      while (slots_[i].key.prefix_key != kEmpty) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t count_ = 0;
};

}  // namespace rd::analysis::prop
