#include "sim/simulator.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/policy.h"
#include "obs/obs.h"
#include "util/rng.h"
#include "util/strings.h"

namespace rd::sim {
namespace {

using analysis::prop::compile_session_dir;
using analysis::prop::compile_stanza_dir;
using analysis::prop::CompiledSessionDir;
using analysis::prop::CompiledStanzaDir;
using analysis::prop::DomainIndex;
using analysis::prop::Problem;
using model::Route;

constexpr SimTime kNever = ~SimTime{0};

// Protocol timers, classic distance-vector (RIP) defaults. All delays are
// simulated milliseconds; nothing reads a wall clock.
constexpr SimTime kAdvertiseIntervalMs = 30'000;  // periodic full-table update
constexpr SimTime kTriggeredMinMs = 1'000;  // triggered-update jitter window
constexpr SimTime kTriggeredMaxMs = 5'000;
constexpr SimTime kInvalidAfterMs = 180'000;  // route invalidation (expiry)
constexpr SimTime kGcAfterMs = 120'000;  // holddown before the entry is freed
constexpr SimTime kLinkDelayMinMs = 10;  // per-edge propagation delay window
constexpr SimTime kLinkDelayMaxMs = 50;

constexpr std::uint16_t kNoMetric = 0xFFFF;
constexpr std::int32_t kViaLocal = -1;   // Entry::via_edge: locally sourced
constexpr std::int64_t kMapDeny = -1;    // SimEdge::map: chain denies
constexpr std::int64_t kMapUnknown = -2; // SimEdge::map: not yet evaluated

/// One RIB slot: the state of (instance, domain position). The generation
/// counter ties the entry to its timer-wheel node — bumping it on every
/// state transition orphans whatever node the old state had in the wheel.
struct Entry {
  std::uint16_t metric = kNoMetric;
  std::uint8_t state = 0;  // 0 absent, 1 valid, 2 invalid (holddown)
  std::uint8_t had_valid = 0;
  std::int32_t via_edge = kViaLocal;  // edge the route was learned over
  std::uint32_t src_pos = 0;  // sender-side domain position (loop walks)
  std::uint32_t gen = 0;
  SimTime deadline_ms = 0;  // expiry (valid) / gc (invalid) deadline
  SimTime lost_at_ms = 0;   // when the last valid entry disappeared
};

/// Per-instance RIB: entries stored densely in first-touch order with an
/// open-addressed position index on top. Fleets have thousands of
/// one-router instances holding a handful of routes each — indexing them
/// by domain position directly would cost instances × domain, sparse
/// storage costs only what each instance actually holds. at() references
/// are invalidated by later at() calls (the entry table grows), exactly
/// like vector references; no caller below holds one across an insert.
class InstanceRib {
 public:
  Entry& at(std::uint32_t pos) {
    if (keys_.empty()) grow(16);
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = hash32(pos) & mask;
    while (keys_[i] != 0) {
      if (keys_[i] == pos + 1) return entries_[slots_[i]];
      i = (i + 1) & mask;
    }
    if ((entries_.size() + 1) * 4 > keys_.size() * 3) {
      grow(keys_.size() * 2);
      return at(pos);
    }
    keys_[i] = pos + 1;
    slots_[i] = static_cast<std::uint32_t>(entries_.size());
    pos_of_.push_back(pos);
    entries_.emplace_back();
    return entries_.back();
  }

  Entry* find(std::uint32_t pos) {
    if (keys_.empty()) return nullptr;
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = hash32(pos) & mask;
    while (keys_[i] != 0) {
      if (keys_[i] == pos + 1) return &entries_[slots_[i]];
      i = (i + 1) & mask;
    }
    return nullptr;
  }

  std::size_t size() const noexcept { return entries_.size(); }
  Entry& entry(std::size_t slot) noexcept { return entries_[slot]; }
  std::uint32_t pos(std::size_t slot) const noexcept { return pos_of_[slot]; }

 private:
  static std::uint32_t hash32(std::uint32_t x) noexcept {
    x *= 0x9e3779b9u;
    return x ^ (x >> 16);
  }

  void grow(std::size_t want) {
    std::vector<std::uint32_t> old_keys = std::move(keys_);
    std::vector<std::uint32_t> old_slots = std::move(slots_);
    keys_.assign(want, 0);
    slots_.assign(want, 0);
    const std::size_t mask = want - 1;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == 0) continue;
      std::size_t j = hash32(old_keys[i] - 1) & mask;
      while (keys_[j] != 0) j = (j + 1) & mask;
      keys_[j] = old_keys[i];
      slots_[j] = old_slots[i];
    }
  }

  std::vector<std::uint32_t> keys_;   // pos + 1; 0 = empty
  std::vector<std::uint32_t> slots_;  // index into entries_
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> pos_of_;  // slot -> pos
};

/// A directed propagation edge with its policy chain compiled and a
/// per-source-position verdict cache (`map`): what a sender-side position
/// becomes on the receiver side, or kMapDeny. Redistribution rewrites
/// intern into the shared domain exactly like the static engine.
struct SimEdge {
  bool is_flow = true;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  model::RouterId from_router = model::kInvalidId;
  model::RouterId to_router = model::kInvalidId;
  CompiledSessionDir sender_out;  // flow chain
  CompiledSessionDir receiver_in;
  const model::CompiledRouteMap* route_map = nullptr;  // redist chain
  CompiledStanzaDir outbound;
  SimTime delay_ms = 0;
  bool up = true;
  std::vector<std::int64_t> map;  // source pos -> target pos / deny
};

/// A seed or aggregate summary: a single route present in an instance
/// without being learned over an edge, owned by one router.
struct PointSource {
  std::uint32_t instance = 0;
  std::uint32_t pos = 0;
  model::RouterId router = model::kInvalidId;
  std::int32_t aggregate = -1;  // index into aggregates_, or -1 for seeds
};

/// External injections, grouped: endpoints of one instance sharing one
/// compiled inbound chain inject exactly the same universe positions, so
/// the chain is evaluated once into a shared permit bitmap and the group
/// just lists its owner routers. The injection lives while ANY owner does
/// — the same masking rule prop::masked applies per endpoint.
struct InjectionGroup {
  std::uint32_t instance = 0;
  const std::vector<std::uint64_t>* permit_bits = nullptr;
  std::vector<model::RouterId> owners;
};

/// Live aggregate bookkeeping: the summary installs while any strictly
/// contained route is valid in the instance (same predicate as the static
/// engine's aggregation edge, maintained incrementally here).
struct AggregateState {
  std::uint32_t instance = 0;
  std::uint32_t pos = 0;  // domain position of the summary route
  ip::Prefix prefix;
  std::size_t contributors = 0;
};

class Run {
 public:
  Run(const Problem& baseline, const Scenario& scenario,
      const SweepOptions& options,
      const std::vector<std::vector<Route>>& baseline_routes)
      : baseline_(baseline),
        scenario_(scenario),
        options_(options),
        baseline_routes_(baseline_routes),
        rng_(util::Rng(options.seed).fork(scenario.name)),
        wheel_(std::max(kInvalidAfterMs, kGcAfterMs)),
        domain_(baseline.universe),
        index_(baseline.universe.size() + baseline.seeds.size()),
        offer_count_(static_cast<std::uint32_t>(baseline.universe.size())) {
    const std::size_t n = baseline.instance_count;
    infinity_ = static_cast<std::uint16_t>(
        std::clamp<std::size_t>(2 * n + 4, 16, 255));
    for (std::size_t u = 0; u < domain_.size(); ++u) {
      index_.insert(analysis::prop::route_key(domain_[u]),
                    static_cast<std::uint32_t>(u));
    }
    ribs_.resize(n);
    out_edges_.resize(n);
    groups_by_instance_.resize(n);
    triggered_pending_.assign(n, 0);
    build_edges();
    build_sources();
  }

  ScenarioResult run();

 private:
  // --- construction ---------------------------------------------------------

  std::uint32_t intern(const Route& route) {
    const auto next = static_cast<std::uint32_t>(domain_.size());
    const std::uint32_t pos =
        index_.insert(analysis::prop::route_key(route), next);
    if (pos == next) domain_.push_back(route);
    return pos;
  }

  void build_edges() {
    // Self-edges (a flow or redistribution back into the same instance)
    // can never change an instance's route set and only add poisoned
    // noise to the event stream; the static engine keeps them because
    // they are harmless there, the simulator skips them.
    for (const auto& flow : baseline_.flows) {
      if (flow.from_instance == flow.to_instance) continue;
      SimEdge edge;
      edge.is_flow = true;
      edge.from = flow.from_instance;
      edge.to = flow.to_instance;
      edge.from_router = flow.from_router;
      edge.to_router = flow.to_router;
      edge.sender_out = compile_session_dir(compiler_, flow.sender_out, false);
      edge.receiver_in = compile_session_dir(compiler_, flow.receiver_in, true);
      push_edge(std::move(edge));
    }
    for (const auto& redist : baseline_.redist_edges) {
      if (redist.from_instance == redist.to_instance) continue;
      SimEdge edge;
      edge.is_flow = false;
      edge.from = redist.from_instance;
      edge.to = redist.to_instance;
      edge.from_router = redist.router;
      edge.to_router = redist.router;
      if (*redist.route_map) {
        edge.route_map =
            compiler_.route_map(*redist.config, **redist.route_map);
      }
      edge.outbound =
          compile_stanza_dir(compiler_, *redist.config, *redist.stanza, false);
      push_edge(std::move(edge));
    }
  }

  void push_edge(SimEdge edge) {
    edge.delay_ms =
        kLinkDelayMinMs + rng_.below(kLinkDelayMaxMs - kLinkDelayMinMs + 1);
    out_edges_[edge.from].push_back(static_cast<std::uint32_t>(edges_.size()));
    edges_.push_back(std::move(edge));
  }

  template <typename Chain>
  const std::vector<std::uint64_t>* permit_bits_for(
      std::map<std::vector<const void*>,
               std::unique_ptr<std::vector<std::uint64_t>>>& cache,
      const std::vector<const void*>& key, const Chain& chain) {
    auto& slot = cache[key];
    if (!slot) {
      slot = std::make_unique<std::vector<std::uint64_t>>(
          (offer_count_ + 63) / 64, 0);
      for (std::uint32_t u = 0; u < offer_count_; ++u) {
        if (chain.permits(domain_[u])) {
          (*slot)[u >> 6] |= 1ULL << (u & 63);
        }
      }
    }
    return slot.get();
  }

  void add_group(std::uint32_t instance,
                 const std::vector<std::uint64_t>* bits,
                 model::RouterId router) {
    for (const std::uint32_t id : groups_by_instance_[instance]) {
      if (groups_[id].permit_bits == bits) {
        groups_[id].owners.push_back(router);
        return;
      }
    }
    groups_by_instance_[instance].push_back(
        static_cast<std::uint32_t>(groups_.size()));
    groups_.push_back({instance, bits, {router}});
  }

  void build_sources() {
    for (const auto& seed : baseline_.seeds) {
      add_point({seed.instance, intern(seed.route), seed.router, -1});
    }
    // External injections, one compiled-chain evaluation per distinct
    // chain (fleets have thousands of endpoints sharing a handful of
    // policies), grouped per (instance, chain) with per-owner masking.
    std::map<std::vector<const void*>,
             std::unique_ptr<std::vector<std::uint64_t>>>
        chain_bits;
    for (const auto& endpoint : baseline_.external_endpoints) {
      const CompiledSessionDir inbound =
          compile_session_dir(compiler_, endpoint.policy, true);
      const auto* bits = permit_bits_for(
          chain_bits,
          {inbound.distribute_list, inbound.prefix_list, inbound.route_map},
          inbound);
      add_group(endpoint.instance, bits, endpoint.router);
    }
    for (const auto& endpoint : baseline_.external_igp_endpoints) {
      const CompiledStanzaDir inbound = compile_stanza_dir(
          compiler_, *endpoint.config, *endpoint.stanza, true);
      std::vector<const void*> key;
      key.reserve(inbound.acls.size() + 1);
      key.push_back(nullptr);  // namespace stanza keys apart from sessions
      for (const auto* acl : inbound.acls) key.push_back(acl);
      const auto* bits = permit_bits_for(chain_bits, key, inbound);
      add_group(endpoint.instance, bits, endpoint.router);
    }
    injection_bits_ = std::move(chain_bits);
    for (const auto& point : baseline_.aggregate_points) {
      const std::uint32_t pos = intern(Route{point.prefix, std::nullopt});
      const auto idx = static_cast<std::int32_t>(aggregates_.size());
      aggregates_.push_back({point.instance, pos, point.prefix, 0});
      add_point({point.instance, pos, point.router, idx});
    }
  }

  void add_point(PointSource source) {
    const std::uint64_t key =
        (std::uint64_t{source.instance} << 32) | source.pos;
    point_index_[key].push_back(
        static_cast<std::uint32_t>(point_sources_.size()));
    point_sources_.push_back(source);
  }

  // --- state access ---------------------------------------------------------

  bool router_is_down(model::RouterId router) const {
    return down_active_ &&
           std::binary_search(scenario_.failed.begin(),
                              scenario_.failed.end(), router);
  }

  bool edge_should_be_up(const SimEdge& edge) const {
    return !router_is_down(edge.from_router) &&
           !router_is_down(edge.to_router);
  }

  bool injection_covers(std::uint32_t instance, std::uint32_t pos) const {
    if (pos >= offer_count_) return false;
    for (const std::uint32_t id : groups_by_instance_[instance]) {
      const InjectionGroup& group = groups_[id];
      if (!((*group.permit_bits)[pos >> 6] >> (pos & 63) & 1)) continue;
      for (const model::RouterId owner : group.owners) {
        if (!router_is_down(owner)) return true;
      }
    }
    return false;
  }

  std::string route_text(std::uint32_t pos) const {
    const Route& route = domain_[pos];
    std::string text = route.prefix.to_string();
    if (route.tag) {
      text += '#';
      text += std::to_string(*route.tag);
    }
    return text;
  }

  // --- transitions ----------------------------------------------------------

  void log_line(SimTime t, std::uint32_t instance, std::uint32_t pos,
                const char* how, const Entry& entry) {
    if (!options_.record_log) return;
    util::appendf(result_.log, "t=%llu inst=%u %s %s m=%u via=%d\n",
                  static_cast<unsigned long long>(t), instance, how,
                  route_text(pos).c_str(), unsigned{entry.metric},
                  entry.via_edge >= 0
                      ? static_cast<int>(edges_[entry.via_edge].from)
                      : -1);
  }

  void changed(std::uint32_t instance, std::uint32_t pos, SimTime t,
               const char* how) {
    last_change_ = t;
    ++result_.route_changes;
    if (fail_done_ && !recover_done_) {
      result_.settle_after_fail_ms = t - scenario_.fail_at_ms;
    } else if (recover_done_) {
      result_.settle_after_recover_ms = t - *scenario_.recover_at_ms;
    }
    schedule_triggered(instance, t);
    const Entry& entry = ribs_[instance].at(pos);
    if (entry.state == 1 && entry.via_edge >= 0) {
      check_microloop(instance, pos);
    }
    log_line(t, instance, pos, how, entry);
  }

  void make_valid(std::uint32_t instance, std::uint32_t pos,
                  std::uint16_t metric, std::int32_t via,
                  std::uint32_t src_pos, SimTime t, const char* how) {
    bool was_valid;
    bool closes_window;
    {
      Entry& entry = ribs_[instance].at(pos);
      was_valid = entry.state == 1;
      closes_window = !was_valid && entry.had_valid;
      entry.metric = metric;
      entry.via_edge = via;
      entry.src_pos = src_pos;
      ++entry.gen;
      if (via >= 0) {
        entry.deadline_ms = t + kInvalidAfterMs;
        wheel_.insert(entry.deadline_ms, {instance, pos, entry.gen});
      } else {
        entry.deadline_ms = 0;  // local entries never expire
      }
      if (closes_window) {
        const SimTime window = t - entry.lost_at_ms;
        ++result_.blackhole_windows;
        result_.blackhole_total_ms += window;
        result_.blackhole_max_ms = std::max(result_.blackhole_max_ms, window);
      }
      entry.state = 1;
    }  // reference dropped: adjust_aggregates below may grow the table
    if (!was_valid) adjust_aggregates(instance, pos, +1, t);
    changed(instance, pos, t, how);
  }

  void make_invalid(std::uint32_t instance, std::uint32_t pos, SimTime t,
                    const char* how) {
    {
      Entry& entry = ribs_[instance].at(pos);
      entry.state = 2;
      entry.metric = infinity_;
      ++entry.gen;
      entry.deadline_ms = t + kGcAfterMs;
      wheel_.insert(entry.deadline_ms, {instance, pos, entry.gen});
      entry.had_valid = 1;
      entry.lost_at_ms = t;
    }
    adjust_aggregates(instance, pos, -1, t);
    changed(instance, pos, t, how);
  }

  void make_absent(std::uint32_t instance, std::uint32_t pos, SimTime t) {
    Entry& entry = ribs_[instance].at(pos);
    entry.state = 0;
    entry.metric = kNoMetric;
    ++entry.gen;
    // Garbage collection drops the entry from advertisements, but an
    // absent route and an infinity route install identically at every
    // receiver, so this is not a route change and does not reset the
    // quiescence clock.
    log_line(t, instance, pos, "gc", entry);
  }

  /// Maintains each aggregate's contributor count when (instance, pos)
  /// flips valid <-> not-valid, and reconciles the summary entry. Strict
  /// containment mirrors the static engine: the summary's own prefix never
  /// contributes, tagged variants of it included.
  void adjust_aggregates(std::uint32_t instance, std::uint32_t pos, int delta,
                         SimTime t) {
    if (aggregates_.empty()) return;
    const ip::Prefix prefix = domain_[pos].prefix;
    for (std::size_t i = 0; i < aggregates_.size(); ++i) {
      AggregateState& aggregate = aggregates_[i];
      if (aggregate.instance != instance) continue;
      if (prefix == aggregate.prefix) continue;
      if (!aggregate.prefix.contains(prefix)) continue;
      aggregate.contributors += delta;
      reconcile_local(aggregate.instance, aggregate.pos, t,
                      delta > 0 ? "aggregate" : "aggregate-lost");
    }
  }

  /// Re-derives the local-source verdict for (instance, pos): installs the
  /// best live source (seeds and live aggregates at metric 0, external
  /// injections at metric 1), or invalidates a local entry whose sources
  /// are all gone. Remote entries are untouched — a lost local route may
  /// still be re-learned from a neighbor (and until then counts as a
  /// blackhole).
  void reconcile_local(std::uint32_t instance, std::uint32_t pos, SimTime t,
                       const char* how) {
    bool want = false;
    std::uint16_t metric = 1;
    const auto it = point_index_.find((std::uint64_t{instance} << 32) | pos);
    if (it != point_index_.end()) {
      for (const std::uint32_t idx : it->second) {
        const PointSource& source = point_sources_[idx];
        if (router_is_down(source.router)) continue;
        if (source.aggregate >= 0 &&
            aggregates_[source.aggregate].contributors == 0) {
          continue;
        }
        want = true;
        metric = 0;
        break;
      }
    }
    if (!want && injection_covers(instance, pos)) want = true;
    Entry* entry = ribs_[instance].find(pos);
    if (want) {
      if (entry != nullptr && entry->state == 1 &&
          entry->via_edge == kViaLocal) {
        if (entry->metric != metric) {
          entry->metric = metric;
          changed(instance, pos, t, "local-metric");
        }
      } else {
        make_valid(instance, pos, metric, kViaLocal, 0, t, how);
      }
    } else if (entry != nullptr && entry->state == 1 &&
               entry->via_edge == kViaLocal) {
      make_invalid(instance, pos, t, how);
    }
  }

  /// Follows the learned-from chain of a freshly (re)installed route at
  /// instance granularity; revisiting an instance means the next-hop chain
  /// is momentarily cyclic — a transient forwarding micro-loop.
  void check_microloop(std::uint32_t start, std::uint32_t pos) {
    walk_.clear();
    std::uint32_t instance = start;
    for (std::size_t steps = 0; steps <= baseline_.instance_count; ++steps) {
      walk_.push_back(instance);
      const Entry* entry = ribs_[instance].find(pos);
      if (entry == nullptr || entry->state != 1 || entry->via_edge < 0) {
        return;
      }
      const SimEdge& edge = edges_[entry->via_edge];
      if (std::find(walk_.begin(), walk_.end(), edge.from) != walk_.end()) {
        ++result_.microloops;
        return;
      }
      pos = entry->src_pos;
      instance = edge.from;
    }
  }

  // --- protocol machinery ---------------------------------------------------

  void schedule_triggered(std::uint32_t instance, SimTime t) {
    if (out_edges_[instance].empty()) return;  // nobody to tell
    if (triggered_pending_[instance]) return;
    triggered_pending_[instance] = 1;
    Event event;
    event.at_ms =
        t + kTriggeredMinMs + rng_.below(kTriggeredMaxMs - kTriggeredMinMs + 1);
    event.kind = Event::Kind::kTriggered;
    event.instance = instance;
    queue_.push(std::move(event));
  }

  void advertise(std::uint32_t instance, SimTime t) {
    auto payload = std::make_shared<std::vector<AdvEntry>>();
    InstanceRib& rib = ribs_[instance];
    payload->reserve(rib.size());
    for (std::size_t slot = 0; slot < rib.size(); ++slot) {
      const Entry& entry = rib.entry(slot);
      if (entry.state == 1) {
        payload->push_back(
            {rib.pos(slot), entry.metric,
             entry.via_edge >= 0 ? edges_[entry.via_edge].from
                                 : AdvEntry::kLocalVia});
      } else if (entry.state == 2) {
        // Holddown entries advertise at infinity toward everyone; the via
        // no longer matters (poisoning cannot make it worse).
        payload->push_back({rib.pos(slot), infinity_, AdvEntry::kLocalVia});
      }
    }
    if (payload->empty()) return;
    const std::shared_ptr<const std::vector<AdvEntry>> shared =
        std::move(payload);
    for (const std::uint32_t edge_index : out_edges_[instance]) {
      const SimEdge& edge = edges_[edge_index];
      if (!edge.up) continue;
      Event event;
      event.at_ms = t + edge.delay_ms;
      event.kind = Event::Kind::kDeliver;
      event.edge = edge_index;
      event.payload = shared;
      queue_.push(std::move(event));
    }
  }

  std::int64_t map_pos(SimEdge& edge, std::uint32_t pos) {
    if (edge.map.size() <= pos) edge.map.resize(domain_.size(), kMapUnknown);
    std::int64_t verdict = edge.map[pos];
    if (verdict != kMapUnknown) return verdict;
    if (edge.is_flow) {
      verdict = edge.sender_out.permits(domain_[pos]) &&
                        edge.receiver_in.permits(domain_[pos])
                    ? static_cast<std::int64_t>(pos)
                    : kMapDeny;
    } else {
      Route forwarded = domain_[pos];  // copy: intern may grow the domain
      bool permitted = true;
      if (edge.route_map != nullptr) {
        const auto result = edge.route_map->evaluate_nomemo(forwarded);
        permitted = result.permitted;
        if (permitted) forwarded = result.route;
      }
      permitted = permitted && edge.outbound.permits(forwarded);
      verdict = permitted ? static_cast<std::int64_t>(intern(forwarded))
                          : kMapDeny;
    }
    edge.map[pos] = verdict;
    return verdict;
  }

  void apply_update(std::uint32_t edge_index, std::uint32_t pos,
                    std::uint16_t metric, std::uint32_t src_pos, SimTime t) {
    const SimEdge& edge = edges_[edge_index];
    if (metric >= infinity_) {
      Entry* entry = ribs_[edge.to].find(pos);  // never materialize on poison
      if (entry != nullptr && entry->state == 1 &&
          entry->via_edge == static_cast<std::int32_t>(edge_index)) {
        make_invalid(edge.to, pos, t, "poisoned");
      }
      return;
    }
    Entry& entry = ribs_[edge.to].at(pos);
    if (entry.state == 1) {
      if (entry.via_edge == static_cast<std::int32_t>(edge_index)) {
        // Current next hop: refresh the expiry. From the SAME sender-side
        // route, accept ANY metric, up or down — the step that makes
        // counting to infinity possible. A different sender-side route
        // mapping onto this position (rewrite loops: a route and its
        // re-imported tagged twin travel the same redistribution edge)
        // only wins by strict improvement; otherwise the two positions'
        // metrics couple as a = b + 1, b = a + 1 and climb forever even
        // with every real source intact.
        entry.deadline_ms = t + kInvalidAfterMs;
        if (entry.src_pos == src_pos) {
          if (entry.metric != metric) {
            entry.metric = metric;
            changed(edge.to, pos, t, "metric");
          }
        } else if (metric < entry.metric) {
          entry.metric = metric;
          entry.src_pos = src_pos;
          changed(edge.to, pos, t, "better-src");
        }
      } else if (entry.via_edge != kViaLocal && metric < entry.metric) {
        make_valid(edge.to, pos, metric, static_cast<std::int32_t>(edge_index),
                   src_pos, t, "switch");
      }
      // Local entries ignore remote offers; equal-or-worse alternates are
      // not tracked (single-path RIB, as in RIP).
      return;
    }
    const char* how = entry.state == 2 ? "restore" : "install";
    make_valid(edge.to, pos, metric, static_cast<std::int32_t>(edge_index),
               src_pos, t, how);
  }

  void deliver(const Event& event, SimTime t) {
    SimEdge& edge = edges_[event.edge];
    if (!edge.up) return;  // sent before the link died: lost in flight
    ++result_.updates_delivered;
    for (const AdvEntry& adv : *event.payload) {
      std::uint32_t metric = adv.metric;
      // Poisoned reverse applies to flows only. A flow reflection can
      // never add a route the sender doesn't already have, so poisoning
      // it kills two-node loops for free. A redistribution re-import IS a
      // real derivation — the static engine has no split horizon, and
      // mutual redistribution deliberately hands routes (rewritten or
      // not) back to the instance they came from.
      if (edge.is_flow && adv.via_instance == edge.to) metric = infinity_;
      const std::int64_t mapped = map_pos(edge, adv.pos);
      if (mapped < 0) continue;
      apply_update(event.edge,
                   static_cast<std::uint32_t>(mapped),
                   static_cast<std::uint16_t>(
                       std::min<std::uint32_t>(metric + 1, infinity_)),
                   adv.pos, t);
    }
  }

  /// (instance, pos) pairs whose local derivations involve a scenario
  /// router — the slots to reconcile when failure state flips.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> scenario_slots() {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> slots;
    for (const PointSource& source : point_sources_) {
      if (std::binary_search(scenario_.failed.begin(), scenario_.failed.end(),
                             source.router)) {
        slots.emplace_back(source.instance, source.pos);
      }
    }
    for (const InjectionGroup& group : groups_) {
      const bool touched = std::any_of(
          group.owners.begin(), group.owners.end(), [&](model::RouterId r) {
            return std::binary_search(scenario_.failed.begin(),
                                      scenario_.failed.end(), r);
          });
      if (!touched) continue;
      for (std::uint32_t pos = 0; pos < offer_count_; ++pos) {
        if ((*group.permit_bits)[pos >> 6] >> (pos & 63) & 1) {
          slots.emplace_back(group.instance, pos);
        }
      }
    }
    std::sort(slots.begin(), slots.end());
    slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
    return slots;
  }

  void handle_fail(SimTime t) {
    // Flags first: the reconciles below produce route changes that must
    // already be attributed to the post-fail settle window.
    fail_done_ = true;
    last_scenario_ = t;
    --scenario_pending_;
    down_active_ = true;
    for (SimEdge& edge : edges_) {
      if (edge.up && !edge_should_be_up(edge)) {
        edge.up = false;
        if (options_.record_log) {
          util::appendf(result_.log, "t=%llu edge %u->%u down\n",
                        static_cast<unsigned long long>(t), edge.from,
                        edge.to);
        }
      }
    }
    for (const auto& [instance, pos] : scenario_slots()) {
      reconcile_local(instance, pos, t, "source-dead");
    }
  }

  void handle_recover(SimTime t) {
    degraded_sets_ = valid_sets();
    recover_done_ = true;
    last_scenario_ = t;
    --scenario_pending_;
    down_active_ = false;
    for (std::uint32_t i = 0; i < edges_.size(); ++i) {
      SimEdge& edge = edges_[i];
      if (!edge.up) {
        edge.up = true;
        // A restored adjacency exchanges tables immediately, as real
        // protocols do on neighbor-up.
        schedule_triggered(edge.from, t);
        if (options_.record_log) {
          util::appendf(result_.log, "t=%llu edge %u->%u up\n",
                        static_cast<unsigned long long>(t), edge.from,
                        edge.to);
        }
      }
    }
    for (const auto& [instance, pos] : scenario_slots()) {
      reconcile_local(instance, pos, t, "source-restored");
    }
  }

  // --- results --------------------------------------------------------------

  std::vector<std::vector<Route>> valid_sets() {
    std::vector<std::vector<Route>> sets(baseline_.instance_count);
    for (std::uint32_t i = 0; i < ribs_.size(); ++i) {
      InstanceRib& rib = ribs_[i];
      for (std::size_t slot = 0; slot < rib.size(); ++slot) {
        if (rib.entry(slot).state == 1) {
          sets[i].push_back(domain_[rib.pos(slot)]);
        }
      }
      std::sort(sets[i].begin(), sets[i].end());
    }
    return sets;
  }

  /// Symmetric-difference size between the simulated (`a`) and static
  /// (`b`) per-instance sorted route sets. With record_log, mismatches are
  /// also spelled out in the log ("+" simulated-only, "-" static-only) —
  /// the first stop when a cross-check fails.
  std::size_t diff_count(const std::vector<std::vector<Route>>& a,
                         const std::vector<std::vector<Route>>& b,
                         const char* what) {
    std::size_t diff = 0;
    const auto note = [&](std::size_t instance, const Route& route,
                          char sign) {
      ++diff;
      if (!options_.record_log) return;
      std::string text = route.prefix.to_string();
      if (route.tag) {
        text += '#';
        text += std::to_string(*route.tag);
      }
      util::appendf(result_.log, "fixpoint-diff(%s) inst=%zu %c%s\n", what,
                    instance, sign, text.c_str());
    };
    for (std::size_t i = 0; i < a.size(); ++i) {
      std::size_t x = 0;
      std::size_t y = 0;
      while (x < a[i].size() && y < b[i].size()) {
        if (a[i][x] == b[i][y]) {
          ++x;
          ++y;
        } else if (a[i][x] < b[i][y]) {
          note(i, a[i][x], '+');
          ++x;
        } else {
          note(i, b[i][y], '-');
          ++y;
        }
      }
      for (; x < a[i].size(); ++x) note(i, a[i][x], '+');
      for (; y < b[i].size(); ++y) note(i, b[i][y], '-');
    }
    return diff;
  }

  SimTime settle_window() const {
    return kInvalidAfterMs + kGcAfterMs + 2 * kAdvertiseIntervalMs;
  }

  const Problem& baseline_;
  const Scenario& scenario_;
  const SweepOptions& options_;
  const std::vector<std::vector<Route>>& baseline_routes_;
  util::Rng rng_;
  model::PolicyCompiler compiler_;
  EventQueue queue_;
  TimerWheel wheel_;
  std::vector<Route> domain_;
  DomainIndex index_;
  std::uint32_t offer_count_ = 0;
  std::vector<InstanceRib> ribs_;
  std::vector<SimEdge> edges_;
  std::vector<std::vector<std::uint32_t>> out_edges_;
  std::vector<PointSource> point_sources_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> point_index_;
  std::map<std::vector<const void*>,
           std::unique_ptr<std::vector<std::uint64_t>>>
      injection_bits_;
  std::vector<InjectionGroup> groups_;
  std::vector<std::vector<std::uint32_t>> groups_by_instance_;
  std::vector<AggregateState> aggregates_;
  std::vector<char> triggered_pending_;
  std::vector<std::uint32_t> walk_;
  std::vector<std::vector<Route>> degraded_sets_;
  ScenarioResult result_;
  std::uint16_t infinity_ = 16;
  bool down_active_ = false;
  bool fail_done_ = false;
  bool recover_done_ = false;
  int scenario_pending_ = 0;
  SimTime last_change_ = 0;
  SimTime last_scenario_ = 0;
};

ScenarioResult Run::run() {
  obs::Span span("sim.scenario", "sim");
  span.label(scenario_.name);
  result_.name = scenario_.name;
  result_.had_failure = !scenario_.failed.empty();

  // --- t = 0: install local sources, arm periodic timers, plant the
  // scenario's fail/recover events.
  for (const PointSource& source : point_sources_) {
    reconcile_local(source.instance, source.pos, 0, "origin");
  }
  for (const InjectionGroup& group : groups_) {
    for (std::uint32_t pos = 0; pos < offer_count_; ++pos) {
      if ((*group.permit_bits)[pos >> 6] >> (pos & 63) & 1) {
        reconcile_local(group.instance, pos, 0, "origin");
      }
    }
  }
  for (std::uint32_t i = 0; i < baseline_.instance_count; ++i) {
    if (out_edges_[i].empty()) continue;  // never advertises: no timer
    Event event;
    event.at_ms = 1 + rng_.below(kAdvertiseIntervalMs);
    event.kind = Event::Kind::kPeriodic;
    event.instance = i;
    queue_.push(std::move(event));
  }
  SimTime last_planted = 0;
  if (!scenario_.failed.empty()) {
    Event fail;
    fail.at_ms = scenario_.fail_at_ms;
    fail.kind = Event::Kind::kFail;
    queue_.push(std::move(fail));
    ++scenario_pending_;
    last_planted = scenario_.fail_at_ms;
    if (scenario_.recover_at_ms) {
      Event recover;
      recover.at_ms = *scenario_.recover_at_ms;
      recover.kind = Event::Kind::kRecover;
      queue_.push(std::move(recover));
      ++scenario_pending_;
      last_planted = *scenario_.recover_at_ms;
    }
  }
  const SimTime cap = options_.until_ms != 0
                          ? options_.until_ms
                          : last_planted + 2 * settle_window();

  // --- Main loop: the timer wheel is a second event source, interleaved
  // with the queue in time order, so nothing ever schedules into the past.
  const auto fire = [this](const TimerWheel::Node& node, SimTime granule_end) {
    Entry* entry = ribs_[node.instance].find(node.pos);
    if (entry == nullptr || entry->gen != node.gen || entry->state == 0) {
      return;  // orphaned node
    }
    if (entry->deadline_ms > granule_end) {  // refreshed: repost and wait
      wheel_.insert(entry->deadline_ms, node);
      return;
    }
    if (entry->state == 1) {
      if (entry->via_edge == kViaLocal) return;  // locals never expire
      make_invalid(node.instance, node.pos, granule_end, "expired");
    } else {
      make_absent(node.instance, node.pos, granule_end);
    }
  };
  while (true) {
    const SimTime next_event = queue_.empty() ? kNever : queue_.top().at_ms;
    const SimTime next_wheel =
        wheel_.empty() ? kNever : wheel_.next_granule_end();
    const SimTime t = std::min(next_event, next_wheel);
    if (t == kNever) {
      result_.quiesced = true;
      result_.end_ms = std::max(last_change_, last_scenario_);
      break;
    }
    if (scenario_pending_ == 0 &&
        t > std::max(last_change_, last_scenario_) + settle_window()) {
      result_.quiesced = true;
      result_.end_ms = std::max(last_change_, last_scenario_) +
                       settle_window();
      break;
    }
    if (t > cap) {
      result_.end_ms = cap;  // quiesced stays false: the cap cut us off
      break;
    }
    wheel_.catch_up(t);
    if (next_wheel <= next_event) {
      wheel_.advance_one(fire);
      continue;
    }
    const Event event = queue_.pop();
    ++result_.events_processed;
    switch (event.kind) {
      case Event::Kind::kPeriodic: {
        advertise(event.instance, t);
        Event next;
        next.at_ms = t + kAdvertiseIntervalMs;
        next.kind = Event::Kind::kPeriodic;
        next.instance = event.instance;
        queue_.push(std::move(next));
        break;
      }
      case Event::Kind::kTriggered:
        triggered_pending_[event.instance] = 0;
        advertise(event.instance, t);
        break;
      case Event::Kind::kDeliver:
        deliver(event, t);
        break;
      case Event::Kind::kFail:
        if (options_.record_log) {
          util::appendf(result_.log, "t=%llu fail\n",
                        static_cast<unsigned long long>(t));
        }
        handle_fail(t);
        break;
      case Event::Kind::kRecover:
        if (options_.record_log) {
          util::appendf(result_.log, "t=%llu recover\n",
                        static_cast<unsigned long long>(t));
        }
        handle_recover(t);
        break;
    }
  }

  auto final_sets = valid_sets();
  for (const auto& routes : final_sets) {
    result_.final_route_count += routes.size();
  }

  // --- Fixpoint cross-checks against the static semi-naïve engine.
  const bool flapped = !scenario_.failed.empty() &&
                       scenario_.recover_at_ms.has_value();
  std::size_t mismatched = 0;
  if (scenario_.failed.empty() || flapped) {
    // The final state of a flap (or no-failure) run is the intact
    // network's fixpoint; a sweep precomputes it once and shares it.
    mismatched = diff_count(final_sets, baseline_routes_, "final");
  } else {
    mismatched = diff_count(
        final_sets,
        analysis::prop::run_semi_naive(
            analysis::prop::masked(baseline_, scenario_.failed), {})
            .routes,
        "final");
  }
  result_.final_match = mismatched == 0;
  if (flapped && recover_done_) {
    const auto expected_degraded =
        analysis::prop::run_semi_naive(
            analysis::prop::masked(baseline_, scenario_.failed), {})
            .routes;
    const std::size_t degraded_diff =
        diff_count(degraded_sets_, expected_degraded, "degraded");
    result_.degraded_match = degraded_diff == 0;
    mismatched += degraded_diff;
  }
  result_.mismatched_routes = mismatched;

  if (span.armed()) {
    span.arg("events", result_.events_processed);
    span.arg("changes", result_.route_changes);
    span.arg("end_ms", result_.end_ms);
  }
  if (obs::counting_enabled()) {
    obs::counter("sim.scenarios").add();
    obs::counter("sim.events").add(result_.events_processed);
    obs::counter("sim.route_changes").add(result_.route_changes);
    obs::counter("sim.microloops").add(result_.microloops);
    obs::counter("sim.blackhole_windows").add(result_.blackhole_windows);
  }
  return std::move(result_);
}

}  // namespace

ScenarioResult simulate(
    const Problem& baseline, const Scenario& scenario,
    const SweepOptions& options,
    const std::vector<std::vector<model::Route>>& baseline_routes) {
  Run run(baseline, scenario, options, baseline_routes);
  return run.run();
}

}  // namespace rd::sim
