#include "analysis/router_rib.h"

#include <algorithm>

namespace rd::analysis {

std::uint32_t administrative_distance(RouteSource source) noexcept {
  switch (source) {
    case RouteSource::kConnected:
      return 0;
    case RouteSource::kStatic:
      return 1;
    case RouteSource::kEbgp:
      return 20;
    case RouteSource::kEigrp:
      return 90;
    case RouteSource::kOspf:
      return 110;
    case RouteSource::kRip:
      return 120;
    case RouteSource::kIbgp:
      return 200;
  }
  return 255;
}

std::string_view to_string(RouteSource source) noexcept {
  switch (source) {
    case RouteSource::kConnected:
      return "connected";
    case RouteSource::kStatic:
      return "static";
    case RouteSource::kEbgp:
      return "ebgp";
    case RouteSource::kEigrp:
      return "eigrp";
    case RouteSource::kOspf:
      return "ospf";
    case RouteSource::kRip:
      return "rip";
    case RouteSource::kIbgp:
      return "ibgp";
  }
  return "?";
}

namespace {

/// The selection class of every process's routes. BGP routes count as EBGP
/// when the process has any external or inter-AS session, as IBGP
/// otherwise — a simplification of per-route provenance that matches how
/// the analyses use the result.
std::vector<RouteSource> process_sources(const model::Network& network) {
  std::vector<char> ebgp(network.processes().size(), 0);
  for (const auto& session : network.bgp_sessions()) {
    if (session.local_process < ebgp.size() &&
        (session.external() || session.ebgp())) {
      ebgp[session.local_process] = 1;
    }
  }
  std::vector<RouteSource> out;
  out.reserve(ebgp.size());
  for (model::ProcessId p = 0; p < ebgp.size(); ++p) {
    switch (network.processes()[p].protocol) {
      case config::RoutingProtocol::kOspf:
        out.push_back(RouteSource::kOspf);
        break;
      case config::RoutingProtocol::kEigrp:
      case config::RoutingProtocol::kIgrp:
        out.push_back(RouteSource::kEigrp);
        break;
      case config::RoutingProtocol::kRip:
      case config::RoutingProtocol::kIsis:
        out.push_back(RouteSource::kRip);
        break;
      case config::RoutingProtocol::kBgp:
        out.push_back(ebgp[p] != 0 ? RouteSource::kEbgp : RouteSource::kIbgp);
        break;
    }
  }
  return out;
}

/// A local-RIB offer: a connected subnet or a static route.
struct LocalRoute {
  ip::Prefix prefix;
  RouteSource source;
};

/// One process's offers on a router: its instance's routes, sorted by
/// (prefix, tag), all at the process's distance.
struct ProcessOffers {
  const model::Route* at;
  const model::Route* end;
  std::uint32_t distance;
  RouteSource source;
  model::ProcessId process;
};

}  // namespace

RouterRibAnalysis RouterRibAnalysis::run(
    const model::Network& network, const graph::InstanceSet& instances,
    const ReachabilityAnalysis& reachability) {
  RouterRibAnalysis out;
  out.ribs_.resize(network.router_count());
  out.process_load_.resize(network.processes().size(), 0);
  out.has_default_.resize(network.router_count(), false);

  for (model::ProcessId p = 0; p < network.processes().size(); ++p) {
    out.process_load_[p] =
        reachability.instance_routes(instances.instance_of[p]).size();
  }
  const auto sources = process_sources(network);

  // Each RIB is a merge of sorted inputs: the local routes, then each
  // process's instance routes in router_processes order. Per prefix the
  // lowest distance wins, and a tie goes to the earliest offer in that
  // order. The merge fills one reused buffer and each RIB is copied out at
  // its exact size: the RIBs of a large network hold millions of routes,
  // and growing each vector would leave spare capacity behind.
  std::vector<LocalRoute> local;
  std::vector<ProcessOffers> offers;
  std::vector<SelectedRoute> merged;
  for (model::RouterId r = 0; r < network.router_count(); ++r) {
    // Local RIB: connected subnets and static routes (paper Figure 3).
    local.clear();
    for (const model::InterfaceId i : network.router_interfaces(r)) {
      const auto& itf = network.interfaces()[i];
      if (itf.subnet && !itf.shutdown) {
        local.push_back({*itf.subnet, RouteSource::kConnected});
      }
    }
    for (const auto& route : network.routers()[r].static_routes) {
      local.push_back({route.prefix(), RouteSource::kStatic});
    }
    std::stable_sort(local.begin(), local.end(),
                     [](const LocalRoute& a, const LocalRoute& b) {
                       if (a.prefix != b.prefix) return a.prefix < b.prefix;
                       return administrative_distance(a.source) <
                              administrative_distance(b.source);
                     });

    // Process RIBs: each process offers its instance's routes.
    offers.clear();
    for (const model::ProcessId p : network.router_processes(r)) {
      const auto& routes =
          reachability.instance_routes(instances.instance_of[p]);
      offers.push_back({routes.data(), routes.data() + routes.size(),
                        administrative_distance(sources[p]), sources[p], p});
    }

    merged.clear();
    std::size_t next_local = 0;
    for (;;) {
      const ip::Prefix* lowest = nullptr;
      if (next_local < local.size()) lowest = &local[next_local].prefix;
      for (const auto& o : offers) {
        if (o.at != o.end && (lowest == nullptr || o.at->prefix < *lowest)) {
          lowest = &o.at->prefix;
        }
      }
      if (lowest == nullptr) break;
      const ip::Prefix prefix = *lowest;

      SelectedRoute best{prefix, RouteSource::kConnected, model::kInvalidId};
      std::uint32_t best_distance = UINT32_MAX;
      if (next_local < local.size() && local[next_local].prefix == prefix) {
        // The sort put the lowest-distance local offer first.
        best.source = local[next_local].source;
        best_distance = administrative_distance(best.source);
        while (next_local < local.size() &&
               local[next_local].prefix == prefix) {
          ++next_local;
        }
      }
      for (auto& o : offers) {
        if (o.at == o.end || o.at->prefix != prefix) continue;
        if (o.distance < best_distance) {
          best.source = o.source;
          best.process = o.process;
          best_distance = o.distance;
        }
        // Tagged copies of the prefix are one offer.
        while (o.at != o.end && o.at->prefix == prefix) ++o.at;
      }
      merged.push_back(best);
    }

    out.ribs_[r].assign(merged.begin(), merged.end());
    // Prefixes order by length first, so a default route sorts first.
    out.has_default_[r] =
        !merged.empty() && merged.front().prefix.length() == 0;
  }
  return out;
}

bool RouterRibAnalysis::router_can_reach(model::RouterId router,
                                         ip::Ipv4Address addr) const {
  for (const auto& route : ribs_[router]) {
    if (route.prefix.length() > 0 && route.prefix.contains(addr)) return true;
  }
  return false;
}

std::vector<model::RouterId> RouterRibAnalysis::routers_with_default_route()
    const {
  std::vector<model::RouterId> out;
  for (model::RouterId r = 0; r < has_default_.size(); ++r) {
    if (has_default_[r]) out.push_back(r);
  }
  return out;
}

std::vector<std::size_t> RouterRibAnalysis::rib_sizes() const {
  std::vector<std::size_t> out;
  out.reserve(ribs_.size());
  for (const auto& rib : ribs_) out.push_back(rib.size());
  return out;
}

}  // namespace rd::analysis
