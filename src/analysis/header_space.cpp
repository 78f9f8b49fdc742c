#include "analysis/header_space.h"

#include <algorithm>
#include <bit>

#include "ip/prefix_trie.h"
#include "obs/obs.h"

namespace rd::analysis {

namespace {

/// Intersection of two disjoint prefix sets: for every overlapping pair the
/// longer prefix is the intersection, and distinct pairs stay disjoint.
std::vector<ip::Prefix> intersect_spaces(const std::vector<ip::Prefix>& a,
                                         const std::vector<ip::Prefix>& b) {
  std::vector<ip::Prefix> out;
  for (const auto& p : a) {
    for (const auto& q : b) {
      if (p.contains(q)) {
        out.push_back(q);
      } else if (q.contains(p)) {
        out.push_back(p);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::string Intent::describe() const {
  std::string out = expect_reachable ? "allow " : "deny ";
  out += source.to_string();
  out += " -> ";
  out += destination.to_string();
  if (protocol != "ip") out += " proto " + protocol;
  if (port) out += " port " + std::to_string(*port);
  return out;
}

std::string IntentWitness::describe() const {
  std::string out = source.to_string();
  out += " -> ";
  out += destination.to_string();
  out += " proto ";
  out += protocol;
  out += " port ";
  out += port ? std::to_string(*port) : std::string("none");
  return out;
}

HeaderSpace::HeaderSpace(const model::Network& network,
                         const graph::InstanceSet& instances,
                         const ReachabilityAnalysis& routes)
    : network_(network), instances_(instances), routes_(routes) {
  const auto& itfs = network_.interfaces();
  regions_.resize(itfs.size());

  // All interface subnets, sorted by (network, length, id) so the subnets
  // contained in any prefix s occupy a contiguous run starting at
  // lower_bound(s.network()).
  struct Entry {
    ip::Prefix subnet;
    model::InterfaceId id;
  };
  std::vector<Entry> entries;
  for (model::InterfaceId i = 0; i < itfs.size(); ++i) {
    if (itfs[i].subnet) entries.push_back({*itfs[i].subnet, i});
  }
  // NOTE: Prefix::operator< orders by (length, network); the contiguous-run
  // scan below needs network-major order, so compare explicitly.
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.subnet.network() != b.subnet.network()) {
                return a.subnet.network() < b.subnet.network();
              }
              if (a.subnet.length() != b.subnet.length()) {
                return a.subnet.length() < b.subnet.length();
              }
              return a.id < b.id;
            });

  for (model::InterfaceId i = 0; i < itfs.size(); ++i) {
    if (!itfs[i].subnet) continue;
    const ip::Prefix s = *itfs[i].subnet;
    std::vector<ip::Prefix> region{s};
    const auto lo = std::lower_bound(
        entries.begin(), entries.end(), s.network().value(),
        [](const Entry& e, std::uint32_t v) {
          return e.subnet.network().value() < v;
        });
    for (auto it = lo; it != entries.end() &&
                       it->subnet.network().value() <= s.last_address().value();
         ++it) {
      if (it->id == i) continue;
      if (it->subnet.length() == s.length()) {
        // An identical subnet on a lower-numbered interface wins the
        // whole tie (attachment_of keeps the first interface it sees at
        // the best length).
        if (it->subnet.network() == s.network() && it->id < i) {
          region.clear();
          break;
        }
        continue;
      }
      if (it->subnet.length() < s.length()) continue;  // shorter never wins
      model::subtract_prefix(region, it->subnet);
      if (region.empty()) break;
    }
    std::sort(region.begin(), region.end());
    regions_[i] = std::move(region);
  }

  route_spaces_.resize(instances_.instances.size());
}

const std::vector<ip::Prefix>& HeaderSpace::attachment_region(
    model::InterfaceId i) const {
  return regions_[i];
}

std::optional<model::InterfaceId> HeaderSpace::attachment_interface(
    ip::Ipv4Address addr) const {
  // Regions are pairwise disjoint, so the first hit is the only hit.
  for (model::InterfaceId i = 0; i < regions_.size(); ++i) {
    for (const auto& piece : regions_[i]) {
      if (piece.contains(addr)) return i;
    }
  }
  return std::nullopt;
}

std::int64_t HeaderSpace::instance_of_interface(model::InterfaceId i) const {
  const auto& itf = network_.interfaces()[i];
  for (const model::ProcessId p : network_.router_processes(itf.router)) {
    const auto& process = network_.processes()[p];
    for (const model::InterfaceId covered : process.covered_interfaces) {
      if (covered == i) {
        return static_cast<std::int64_t>(instances_.instance_of[p]);
      }
    }
  }
  return -1;
}

const std::vector<ip::Prefix>& HeaderSpace::route_space(
    std::uint32_t instance) {
  auto& slot = route_spaces_[instance];
  if (!slot) {
    // Routes arrive sorted ascending, covers before what they cover, so
    // insert_uncovered leaves a minimal disjoint cover of the non-default
    // routes — the address set instance_has_route_to answers true for.
    ip::PrefixTrie<char> trie;
    for (const auto& route : routes_.instance_routes(instance)) {
      if (route.prefix.length() > 0) trie.insert_uncovered(route.prefix, 1);
    }
    std::vector<ip::Prefix> cover;
    cover.reserve(trie.size());
    trie.for_each(
        [&](const ip::Prefix& p, const char&) { cover.push_back(p); });
    slot = std::move(cover);
  }
  return *slot;
}

const model::HeaderPredicate* HeaderSpace::inbound_filter(
    model::InterfaceId i) {
  const auto& itf = network_.interfaces()[i];
  const auto& cfg = network_.routers()[itf.router];
  const auto& icfg = cfg.interfaces[itf.config_index];
  if (!icfg.access_group_in) return nullptr;
  const auto* sym = compiler_.symbolic_acl(cfg, *icfg.access_group_in);
  return sym != nullptr ? &sym->permitted() : nullptr;
}

const model::HeaderPredicate* HeaderSpace::outbound_filter(
    model::InterfaceId i) {
  const auto& itf = network_.interfaces()[i];
  const auto& cfg = network_.routers()[itf.router];
  const auto& icfg = cfg.interfaces[itf.config_index];
  if (!icfg.access_group_out) return nullptr;
  const auto* sym = compiler_.symbolic_acl(cfg, *icfg.access_group_out);
  return sym != nullptr ? &sym->permitted() : nullptr;
}

model::HeaderPredicate HeaderSpace::build_pair(
    model::InterfaceId ingress, std::optional<model::InterfaceId> egress) {
  const auto& src_region = regions_[ingress];
  if (src_region.empty()) return model::HeaderPredicate::none();

  std::vector<ip::Prefix> dst_region;
  std::int64_t dst_inst = -1;
  if (egress) {
    dst_region = regions_[*egress];
    dst_inst = instance_of_interface(*egress);
  } else {
    // Unattached destinations: no region constraint of their own (the
    // caller guarantees the destination lies outside every region).
    dst_region.push_back(ip::Prefix(ip::Ipv4Address(0u), 0));
  }
  if (dst_region.empty()) return model::HeaderPredicate::none();

  // Control plane, forward direction: the source's instance must hold a
  // route to the destination (or reach the Internet, which covers every
  // destination). No check when no routing process serves the attachment —
  // exactly the concrete evaluate()'s src->instance >= 0 guard.
  const std::int64_t src_inst = instance_of_interface(ingress);
  std::vector<ip::Prefix> dst_space = dst_region;
  if (src_inst >= 0 &&
      !routes_.instance_reaches_internet(
          static_cast<std::uint32_t>(src_inst))) {
    dst_space = intersect_spaces(
        dst_region, route_space(static_cast<std::uint32_t>(src_inst)));
  }
  // Return direction: only checked when the destination is attached to a
  // routed instance.
  std::vector<ip::Prefix> src_space = src_region;
  if (egress && dst_inst >= 0 &&
      !routes_.instance_reaches_internet(
          static_cast<std::uint32_t>(dst_inst))) {
    src_space = intersect_spaces(
        src_region, route_space(static_cast<std::uint32_t>(dst_inst)));
  }
  if (src_space.empty() || dst_space.empty()) {
    return model::HeaderPredicate::none();
  }

  model::HeaderPredicate pred;
  for (const auto& s : src_space) {
    for (const auto& d : dst_space) {
      model::HeaderAtom atom;
      atom.source = s;
      atom.destination = d;
      pred.unite(atom);
    }
  }

  // Data plane: inbound filter at the source attachment, outbound filter
  // at the destination attachment (when attached). Unresolvable ACL
  // references filter nothing, as in the concrete prober.
  if (const auto* in = inbound_filter(ingress)) pred = pred.intersect(*in);
  if (egress) {
    if (const auto* out = outbound_filter(*egress)) {
      pred = pred.intersect(*out);
    }
  }
  pred.normalize();
  return pred;
}

const model::HeaderPredicate& HeaderSpace::pair_predicate(
    model::InterfaceId ingress, model::InterfaceId egress) {
  const auto key = std::make_pair(ingress, egress);
  const auto it = pair_cache_.find(key);
  if (it != pair_cache_.end()) return it->second;
  auto pred = build_pair(ingress, egress);
  obs::counter("headerspace.pairs").add();
  obs::counter("headerspace.atoms").add(pred.atom_count());
  return pair_cache_.emplace(key, std::move(pred)).first->second;
}

const model::HeaderPredicate& HeaderSpace::unattached_predicate(
    model::InterfaceId ingress) {
  const auto it = unattached_cache_.find(ingress);
  if (it != unattached_cache_.end()) return it->second;
  auto pred = build_pair(ingress, std::nullopt);
  obs::counter("headerspace.pairs").add();
  obs::counter("headerspace.atoms").add(pred.atom_count());
  return unattached_cache_.emplace(ingress, std::move(pred)).first->second;
}

bool HeaderSpace::passes(const FlowQuery& query) {
  const auto src = attachment_interface(query.source);
  if (!src) return false;
  const auto dst = attachment_interface(query.destination);
  const auto& pred =
      dst ? pair_predicate(*src, *dst) : unattached_predicate(*src);
  const std::uint64_t bit =
      compiler_.protocol_domain().packet_bit(query.protocol);
  const std::uint32_t port =
      query.destination_port ? *query.destination_port : model::kNoPort;
  return pred.contains(query.source, query.destination, bit, port);
}

std::vector<IntentOutcome> HeaderSpace::verify(
    const std::vector<Intent>& intents) {
  std::vector<IntentOutcome> outcomes;
  outcomes.reserve(intents.size());

  // Destinations outside every interface subnet — the addresses the
  // concrete prober reports as unattached.
  std::vector<ip::Prefix> unattached_universe{
      ip::Prefix(ip::Ipv4Address(0u), 0)};
  for (const auto& itf : network_.interfaces()) {
    if (!itf.subnet) continue;
    model::subtract_prefix(unattached_universe, *itf.subnet);
    if (unattached_universe.empty()) break;
  }
  std::sort(unattached_universe.begin(), unattached_universe.end());

  for (const auto& intent : intents) {
    model::HeaderAtom region;
    region.source = intent.source;
    region.destination = intent.destination;
    region.protocols = intent.protocol == "ip"
                           ? model::kAllProtocols
                           : compiler_.protocol_domain().clause_mask(
                                 intent.protocol);
    if (intent.port) {
      region.port_lo = region.port_hi = *intent.port;
    }
    const auto scope = model::HeaderPredicate::of(region);

    // The reachable part of the intent's region with an unattached
    // destination, per ingress, needs the destination restricted to the
    // unattached universe.
    model::HeaderPredicate unattached_scope;
    for (const auto& u : intersect_spaces(unattached_universe,
                                          {intent.destination})) {
      model::HeaderAtom a = region;
      a.destination = u;
      unattached_scope.unite(a);
    }

    IntentOutcome outcome;
    outcome.intent = intent;
    outcome.holds = true;

    // remaining = headers of the region not yet proven reachable (allow
    // intents must drain it to empty).
    model::HeaderPredicate remaining = scope;
    std::optional<model::HeaderPredicate::Witness> violating;

    for (model::InterfaceId i = 0;
         i < regions_.size() && (intent.expect_reachable || !violating);
         ++i) {
      if (regions_[i].empty()) continue;
      if (intersect_spaces(regions_[i], {intent.source}).empty()) continue;
      for (model::InterfaceId e = 0; e < regions_.size(); ++e) {
        if (regions_[e].empty()) continue;
        if (intersect_spaces(regions_[e], {intent.destination}).empty()) {
          continue;
        }
        const auto reachable = pair_predicate(i, e).intersect(scope);
        if (intent.expect_reachable) {
          remaining = remaining.subtract(reachable);
          if (remaining.is_empty()) break;
        } else if (!reachable.is_empty()) {
          auto pruned = reachable;
          pruned.normalize();
          violating = pruned.witness();
          break;
        }
      }
      if (intent.expect_reachable && remaining.is_empty()) break;
      if (!intent.expect_reachable && !violating &&
          !unattached_scope.is_empty()) {
        const auto reachable =
            unattached_predicate(i).intersect(unattached_scope);
        if (!reachable.is_empty()) {
          auto pruned = reachable;
          pruned.normalize();
          violating = pruned.witness();
        }
      }
      if (intent.expect_reachable && !unattached_scope.is_empty()) {
        remaining =
            remaining.subtract(unattached_predicate(i).intersect(
                unattached_scope));
      }
    }

    if (intent.expect_reachable) {
      if (!remaining.is_empty()) {
        remaining.normalize();
        violating = remaining.witness();
      }
    }
    if (violating) {
      outcome.holds = false;
      IntentWitness w;
      w.source = violating->source;
      w.destination = violating->destination;
      w.protocol =
          std::string(protocol_domain().bit_name(violating->protocol_bit));
      if (violating->port != model::kNoPort) {
        w.port = static_cast<std::uint16_t>(violating->port);
      }
      outcome.witness = w;
    }
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

std::vector<Intent> collect_intents(const model::Network& network) {
  std::vector<Intent> intents;
  for (model::RouterId r = 0; r < network.routers().size(); ++r) {
    for (const auto& directive : network.routers()[r].intents) {
      Intent intent;
      intent.expect_reachable = directive.expect_reachable;
      intent.source = directive.source;
      intent.destination = directive.destination;
      intent.protocol = directive.protocol;
      intent.port = directive.port;
      intent.router = r;
      intent.line = directive.line;
      intents.push_back(std::move(intent));
    }
  }
  return intents;
}

std::vector<IntentOutcome> verify_intents(const model::Network& network,
                                          const graph::InstanceSet& instances,
                                          const ReachabilityAnalysis& routes,
                                          const std::vector<Intent>& intents) {
  HeaderSpace space(network, instances, routes);
  return space.verify(intents);
}

}  // namespace rd::analysis
