#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "config/ast.h"
#include "config/parser.h"
#include "ip/ipv4.h"

namespace rd::model {

using RouterId = std::uint32_t;
using InterfaceId = std::uint32_t;
using ProcessId = std::uint32_t;
using LinkId = std::uint32_t;

constexpr std::uint32_t kInvalidId = 0xFFFFFFFFu;

/// One interface, resolved network-wide (paper §2.1).
struct Interface {
  RouterId router = kInvalidId;
  std::uint32_t config_index = 0;  // into RouterConfig::interfaces
  std::string name;
  std::string hardware_type;
  std::optional<ip::Ipv4Address> address;
  std::optional<ip::Prefix> subnet;
  /// Secondary addressing ("ip address ... secondary"): extra subnets on
  /// the same wire. They participate in address ownership, internality
  /// tests, and the address-structure analysis; the link is identified by
  /// the primary subnet.
  std::vector<ip::Ipv4Address> secondary_addresses;
  std::vector<ip::Prefix> secondary_subnets;
  LinkId link = kInvalidId;  // kInvalidId when unmatched
  bool shutdown = false;
  bool point_to_point = false;
  /// True when the analysis concluded an external router sits on this
  /// interface's link (paper §2.1/§5.2 rules).
  bool external_facing = false;

  bool numbered() const noexcept { return address.has_value(); }
};

/// A logical IP link: the set of interfaces sharing one subnet.
struct Link {
  ip::Prefix subnet;
  std::vector<InterfaceId> interfaces;
  bool external_facing = false;

  bool internal() const noexcept { return !external_facing; }
};

/// One routing process: a "router <proto> <id>" stanza on one router
/// (paper §2.2). For BGP the process_id is the local AS number.
struct RoutingProcess {
  RouterId router = kInvalidId;
  std::uint32_t stanza_index = 0;  // into RouterConfig::router_stanzas
  config::RoutingProtocol protocol = config::RoutingProtocol::kOspf;
  std::optional<std::uint32_t> process_id;
  /// Interfaces associated with this process via network statements
  /// (IGP only; BGP network statements announce prefixes instead).
  std::vector<InterfaceId> covered_interfaces;
};

/// An IGP adjacency: two same-protocol processes on opposite ends of a link,
/// each covering its end (paper §2.2).
struct IgpAdjacency {
  ProcessId process_a = kInvalidId;
  ProcessId process_b = kInvalidId;
  LinkId link = kInvalidId;
};

/// A potential IGP adjacency to a router outside the data set: a process
/// covering a non-passive external-facing interface. This is what makes an
/// IGP instance serve in the inter-domain role (paper §5.2).
struct ExternalIgpAdjacency {
  ProcessId process = kInvalidId;
  InterfaceId interface = kInvalidId;
};

/// One configured BGP session (one "neighbor X remote-as N").
struct BgpSession {
  ProcessId local_process = kInvalidId;
  std::uint32_t neighbor_index = 0;  // into the stanza's neighbors
  ip::Ipv4Address remote_address;
  std::uint32_t local_as = 0;
  std::uint32_t remote_as = 0;
  /// Remote process resolved inside the data set; kInvalidId if the session
  /// terminates outside the network (external peering).
  ProcessId remote_process = kInvalidId;

  bool ebgp() const noexcept { return local_as != remote_as; }
  bool external() const noexcept { return remote_process == kInvalidId; }
};

/// Endpoint kinds for redistribution edges. Connected subnets and static
/// routes live in the per-router "local RIB" (paper Figure 3).
enum class RibKind : std::uint8_t { kProcess, kLocal };

/// A route-redistribution edge inside one router: source RIB -> target
/// process RIB (paper §2.4). Policy (route-map) annotations ride along.
struct RedistributionEdge {
  RouterId router = kInvalidId;
  RibKind source_kind = RibKind::kProcess;
  ProcessId source_process = kInvalidId;  // valid when kProcess
  ProcessId target_process = kInvalidId;
  std::uint32_t redistribute_index = 0;  // into the stanza's redistributes
  std::optional<std::string> route_map;
};

/// The reverse-engineered model of one network, built from the full set of
/// that network's router configurations. This is the substrate every
/// higher-level abstraction (process graph, instances, pathways, address
/// structure) is computed from.
class Network {
 public:
  /// Build the model. Configs are moved in; each becomes one Router.
  /// Routers built this way carry no parse diagnostics (the configs were
  /// constructed in memory, not parsed).
  static Network build(std::vector<config::RouterConfig> configs);

  /// Build the model from full parse results, preserving each router's
  /// parse diagnostics so malformed config lines stay visible in reports
  /// instead of vanishing at the model boundary.
  static Network build_parsed(std::vector<config::ParseResult> parses);

  const std::vector<config::RouterConfig>& routers() const noexcept {
    return routers_;
  }
  /// Per-router parse diagnostics, indexed by RouterId; empty vectors when
  /// the network was built from in-memory configs.
  const std::vector<std::vector<config::ParseDiagnostic>>& parse_diagnostics()
      const noexcept {
    return parse_diagnostics_;
  }
  const std::vector<config::ParseDiagnostic>& parse_diagnostics(
      RouterId r) const {
    return parse_diagnostics_[r];
  }
  std::size_t total_parse_diagnostics() const noexcept {
    std::size_t total = 0;
    for (const auto& diags : parse_diagnostics_) total += diags.size();
    return total;
  }
  const std::vector<Interface>& interfaces() const noexcept {
    return interfaces_;
  }
  const std::vector<Link>& links() const noexcept { return links_; }
  const std::vector<RoutingProcess>& processes() const noexcept {
    return processes_;
  }
  const std::vector<IgpAdjacency>& igp_adjacencies() const noexcept {
    return igp_adjacencies_;
  }
  const std::vector<ExternalIgpAdjacency>& external_igp_adjacencies()
      const noexcept {
    return external_igp_adjacencies_;
  }
  const std::vector<BgpSession>& bgp_sessions() const noexcept {
    return bgp_sessions_;
  }
  const std::vector<RedistributionEdge>& redistribution_edges()
      const noexcept {
    return redistribution_edges_;
  }

  /// Interface ids belonging to a router.
  const std::vector<InterfaceId>& router_interfaces(RouterId r) const {
    return router_interfaces_[r];
  }
  /// Process ids belonging to a router.
  const std::vector<ProcessId>& router_processes(RouterId r) const {
    return router_processes_[r];
  }

  /// The interface (if any) that owns an address, found via exact match.
  std::optional<InterfaceId> interface_with_address(
      ip::Ipv4Address addr) const;

  /// All subnets assigned to interfaces — raw material for the
  /// address-structure analysis (paper §3.4).
  std::vector<ip::Prefix> interface_subnets() const;

  /// True when `addr` falls inside any interface subnet of the network —
  /// the "known to be inside" test of paper §5.2.
  bool address_is_internal(ip::Ipv4Address addr) const;

  std::size_t router_count() const noexcept { return routers_.size(); }

 private:
  Network() = default;

  void index_interfaces();
  void infer_links();
  void mark_external_facing();
  void index_processes();
  void compute_igp_adjacencies();
  void resolve_bgp_sessions();
  void build_redistribution_edges();

  std::vector<config::RouterConfig> routers_;
  std::vector<std::vector<config::ParseDiagnostic>> parse_diagnostics_;
  std::vector<Interface> interfaces_;
  std::vector<Link> links_;
  std::vector<RoutingProcess> processes_;
  std::vector<IgpAdjacency> igp_adjacencies_;
  std::vector<ExternalIgpAdjacency> external_igp_adjacencies_;
  std::vector<BgpSession> bgp_sessions_;
  std::vector<RedistributionEdge> redistribution_edges_;
  std::vector<std::vector<InterfaceId>> router_interfaces_;
  std::vector<std::vector<ProcessId>> router_processes_;
};

}  // namespace rd::model
