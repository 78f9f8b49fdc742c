#include "model/network.h"

#include <algorithm>
#include <unordered_map>

#include "ip/prefix_trie.h"

namespace rd::model {

namespace {

/// True when a stanza treats this interface as passive (no adjacencies form
/// over it, so it cannot create an external-facing IGP adjacency).
bool is_passive(const config::RouterStanza& stanza,
                const std::string& interface_name) {
  if (stanza.passive_default) return true;
  return std::find(stanza.passive_interfaces.begin(),
                   stanza.passive_interfaces.end(),
                   interface_name) != stanza.passive_interfaces.end();
}

}  // namespace

Network Network::build_parsed(std::vector<config::ParseResult> parses) {
  std::vector<config::RouterConfig> configs;
  configs.reserve(parses.size());
  std::vector<std::vector<config::ParseDiagnostic>> diagnostics;
  diagnostics.reserve(parses.size());
  for (auto& parse : parses) {
    configs.push_back(std::move(parse.config));
    diagnostics.push_back(std::move(parse.diagnostics));
  }
  Network net = build(std::move(configs));
  net.parse_diagnostics_ = std::move(diagnostics);
  return net;
}

Network Network::build(std::vector<config::RouterConfig> configs) {
  Network net;
  net.routers_ = std::move(configs);
  net.parse_diagnostics_.resize(net.routers_.size());
  net.index_interfaces();
  net.infer_links();
  net.index_processes();
  net.mark_external_facing();
  net.compute_igp_adjacencies();
  net.resolve_bgp_sessions();
  net.build_redistribution_edges();
  return net;
}

void Network::index_interfaces() {
  router_interfaces_.resize(routers_.size());
  for (RouterId r = 0; r < routers_.size(); ++r) {
    const auto& config = routers_[r];
    for (std::uint32_t c = 0; c < config.interfaces.size(); ++c) {
      const auto& icfg = config.interfaces[c];
      Interface itf;
      itf.router = r;
      itf.config_index = c;
      itf.name = icfg.name;
      itf.hardware_type = icfg.hardware_type();
      itf.shutdown = icfg.shutdown;
      itf.point_to_point = icfg.point_to_point;
      if (icfg.address) {
        itf.address = icfg.address->address;
        itf.subnet = icfg.address->subnet();
      }
      for (const auto& secondary : icfg.secondary_addresses) {
        itf.secondary_addresses.push_back(secondary.address);
        itf.secondary_subnets.push_back(secondary.subnet());
      }
      router_interfaces_[r].push_back(
          static_cast<InterfaceId>(interfaces_.size()));
      interfaces_.push_back(std::move(itf));
    }
  }
}

void Network::infer_links() {
  // Paper §2.1: logical IP links are inferred by matching interfaces that
  // share a subnet. /32 assignments (loopbacks) are not links.
  std::unordered_map<ip::Prefix, LinkId> by_subnet;
  for (InterfaceId i = 0; i < interfaces_.size(); ++i) {
    Interface& itf = interfaces_[i];
    if (!itf.subnet || itf.subnet->length() == 32 || itf.shutdown) continue;
    const auto [it, inserted] =
        by_subnet.try_emplace(*itf.subnet, static_cast<LinkId>(links_.size()));
    if (inserted) {
      Link link;
      link.subnet = *itf.subnet;
      links_.push_back(std::move(link));
    }
    itf.link = it->second;
    links_[it->second].interfaces.push_back(i);
  }
}

void Network::mark_external_facing() {
  // Set of all addresses owned by interfaces in the data set (primary and
  // secondary).
  std::unordered_map<std::uint32_t, InterfaceId> owned;
  for (InterfaceId i = 0; i < interfaces_.size(); ++i) {
    if (interfaces_[i].address) {
      owned.emplace(interfaces_[i].address->value(), i);
    }
    for (const auto secondary : interfaces_[i].secondary_addresses) {
      owned.emplace(secondary.value(), i);
    }
  }

  // Rule 1 (paper §5.2): point-to-point subnets (/30 and /31) are internal
  // exactly when every usable address is owned by an interface in the data
  // set; otherwise an external router must hold the missing address.
  for (Link& link : links_) {
    if (link.subnet.length() >= 30) {
      const std::uint32_t base = link.subnet.network().value();
      std::size_t usable = 0;
      std::size_t present = 0;
      for (std::uint64_t off = 0; off < link.subnet.size(); ++off) {
        const std::uint32_t candidate =
            base + static_cast<std::uint32_t>(off);
        // /30 network & broadcast addresses are not usable; /31 uses both.
        if (link.subnet.length() == 30 &&
            (off == 0 || off == link.subnet.size() - 1)) {
          continue;
        }
        ++usable;
        if (owned.contains(candidate)) ++present;
      }
      link.external_facing = present < usable;
    }
  }

  // Rule 2 (paper §5.2): a multipoint link is external-facing when one of
  // its addresses is used as a next hop but is not owned by any interface in
  // the data set — an external router must be present to accept the packets.
  // A trie over the multipoint subnets makes this O(next-hops), not
  // O(next-hops x links).
  ip::PrefixTrie<std::vector<LinkId>> multipoint;
  for (LinkId l = 0; l < links_.size(); ++l) {
    if (links_[l].subnet.length() >= 30) continue;
    if (const auto* existing = multipoint.find(links_[l].subnet)) {
      auto copy = *existing;
      copy.push_back(l);
      multipoint.insert(links_[l].subnet, std::move(copy));
    } else {
      multipoint.insert(links_[l].subnet, {l});
    }
  }
  auto note_next_hop = [&](ip::Ipv4Address nh) {
    if (owned.contains(nh.value())) return;
    multipoint.for_each_match(nh, [&](const std::vector<LinkId>& matches) {
      for (const LinkId l : matches) links_[l].external_facing = true;
    });
  };
  for (const auto& config : routers_) {
    for (const auto& route : config.static_routes) {
      if (const auto* nh = std::get_if<ip::Ipv4Address>(&route.next_hop)) {
        note_next_hop(*nh);
      }
    }
    for (const auto& stanza : config.router_stanzas) {
      for (const auto& nbr : stanza.neighbors) note_next_hop(nbr.address);
    }
  }

  // Propagate the link-level conclusion to interfaces.
  for (Interface& itf : interfaces_) {
    if (itf.link != kInvalidId) {
      itf.external_facing = links_[itf.link].external_facing;
    }
  }
}

void Network::index_processes() {
  router_processes_.resize(routers_.size());
  for (RouterId r = 0; r < routers_.size(); ++r) {
    const auto& config = routers_[r];
    for (std::uint32_t s = 0; s < config.router_stanzas.size(); ++s) {
      const auto& stanza = config.router_stanzas[s];
      RoutingProcess process;
      process.router = r;
      process.stanza_index = s;
      process.protocol = stanza.protocol;
      process.process_id = stanza.process_id;
      if (stanza.protocol == config::RoutingProtocol::kIsis) {
        // IS-IS association is per interface ("ip router isis"), not via
        // network statements.
        for (const InterfaceId i : router_interfaces_[r]) {
          const Interface& itf = interfaces_[i];
          const auto& icfg = config.interfaces[itf.config_index];
          if (icfg.isis && itf.address && !itf.shutdown) {
            process.covered_interfaces.push_back(i);
          }
        }
      } else if (config::is_conventional_igp(stanza.protocol)) {
        // Association via network statements: a statement covers every
        // interface whose primary address falls inside it (paper §2.2).
        for (const InterfaceId i : router_interfaces_[r]) {
          const Interface& itf = interfaces_[i];
          if (!itf.address || itf.shutdown) continue;
          bool covered = false;
          for (const auto& ns : stanza.networks) {
            covered = covered || ns.prefix().contains(*itf.address);
            for (const auto secondary : itf.secondary_addresses) {
              covered = covered || ns.prefix().contains(secondary);
            }
            if (covered) break;
          }
          if (covered) process.covered_interfaces.push_back(i);
        }
      }
      router_processes_[r].push_back(
          static_cast<ProcessId>(processes_.size()));
      processes_.push_back(std::move(process));
    }
  }
}

void Network::compute_igp_adjacencies() {
  // Per link, gather (process, interface) pairs; same-protocol pairs on
  // different routers are adjacent (paper §2.2). A process covering a
  // non-passive external-facing interface may be adjacent to a router
  // outside the data set (paper §5.2).
  struct Coverage {
    ProcessId process;
    InterfaceId interface;
  };
  std::vector<std::vector<Coverage>> per_link(links_.size());
  for (ProcessId p = 0; p < processes_.size(); ++p) {
    const RoutingProcess& process = processes_[p];
    const auto& stanza =
        routers_[process.router].router_stanzas[process.stanza_index];
    for (const InterfaceId i : process.covered_interfaces) {
      const Interface& itf = interfaces_[i];
      if (is_passive(stanza, itf.name)) continue;
      if (itf.link != kInvalidId) {
        per_link[itf.link].push_back({p, i});
      }
      if (itf.external_facing) {
        external_igp_adjacencies_.push_back({p, i});
      }
    }
  }
  for (LinkId l = 0; l < links_.size(); ++l) {
    const auto& coverage = per_link[l];
    for (std::size_t a = 0; a < coverage.size(); ++a) {
      for (std::size_t b = a + 1; b < coverage.size(); ++b) {
        const RoutingProcess& pa = processes_[coverage[a].process];
        const RoutingProcess& pb = processes_[coverage[b].process];
        if (pa.router == pb.router) continue;
        if (pa.protocol != pb.protocol) continue;
        igp_adjacencies_.push_back({coverage[a].process, coverage[b].process,
                                    static_cast<LinkId>(l)});
      }
    }
  }
}

void Network::resolve_bgp_sessions() {
  std::unordered_map<std::uint32_t, RouterId> owner_router;
  for (const Interface& itf : interfaces_) {
    if (itf.address) owner_router.emplace(itf.address->value(), itf.router);
  }

  for (ProcessId p = 0; p < processes_.size(); ++p) {
    const RoutingProcess& process = processes_[p];
    if (process.protocol != config::RoutingProtocol::kBgp) continue;
    const auto& stanza =
        routers_[process.router].router_stanzas[process.stanza_index];
    for (std::uint32_t n = 0; n < stanza.neighbors.size(); ++n) {
      const auto& nbr = stanza.neighbors[n];
      BgpSession session;
      session.local_process = p;
      session.neighbor_index = n;
      session.remote_address = nbr.address;
      session.local_as = stanza.process_id.value_or(0);
      session.remote_as = nbr.remote_as;
      // Paper §2.2: BGP processes are adjacent when explicitly configured
      // and mutually reachable. Within the data set, resolve the neighbor
      // address to a router and look for a BGP process with the right AS.
      if (const auto it = owner_router.find(nbr.address.value());
          it != owner_router.end()) {
        for (const ProcessId q : router_processes_[it->second]) {
          const RoutingProcess& remote = processes_[q];
          if (remote.protocol == config::RoutingProtocol::kBgp &&
              remote.process_id.value_or(0) == nbr.remote_as) {
            session.remote_process = q;
            break;
          }
        }
      }
      bgp_sessions_.push_back(session);
    }
  }
}

void Network::build_redistribution_edges() {
  for (ProcessId p = 0; p < processes_.size(); ++p) {
    const RoutingProcess& process = processes_[p];
    const RouterId r = process.router;
    const auto& stanza = routers_[r].router_stanzas[process.stanza_index];
    for (std::uint32_t d = 0; d < stanza.redistributes.size(); ++d) {
      const auto& redist = stanza.redistributes[d];
      RedistributionEdge edge;
      edge.router = r;
      edge.target_process = p;
      edge.redistribute_index = d;
      edge.route_map = redist.route_map;
      if (redist.source != config::RedistributeSource::kProtocol) {
        edge.source_kind = RibKind::kLocal;
        redistribution_edges_.push_back(edge);
        continue;
      }
      // Protocol source: match processes on the same router by protocol and
      // (when given) process id. Ambiguous matches each get an edge.
      bool matched = false;
      for (const ProcessId q : router_processes_[r]) {
        if (q == p) continue;
        const RoutingProcess& source = processes_[q];
        if (source.protocol != redist.protocol) continue;
        if (redist.process_id && source.process_id != redist.process_id) {
          continue;
        }
        edge.source_kind = RibKind::kProcess;
        edge.source_process = q;
        redistribution_edges_.push_back(edge);
        matched = true;
      }
      if (!matched) {
        // Dangling redistribute (source process absent) — a real-world
        // configuration vestige; recorded as an edge from the local RIB so
        // the graph still shows the designer's intent to import something.
        edge.source_kind = RibKind::kLocal;
        redistribution_edges_.push_back(edge);
      }
    }
  }
}

std::optional<InterfaceId> Network::interface_with_address(
    ip::Ipv4Address addr) const {
  for (InterfaceId i = 0; i < interfaces_.size(); ++i) {
    if (interfaces_[i].address == addr) return i;
  }
  return std::nullopt;
}

std::vector<ip::Prefix> Network::interface_subnets() const {
  std::vector<ip::Prefix> out;
  out.reserve(interfaces_.size());
  for (const Interface& itf : interfaces_) {
    if (itf.subnet) out.push_back(*itf.subnet);
    out.insert(out.end(), itf.secondary_subnets.begin(),
               itf.secondary_subnets.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool Network::address_is_internal(ip::Ipv4Address addr) const {
  for (const Interface& itf : interfaces_) {
    if (itf.subnet && itf.subnet->contains(addr)) return true;
    for (const auto& secondary : itf.secondary_subnets) {
      if (secondary.contains(addr)) return true;
    }
  }
  return false;
}

}  // namespace rd::model
