#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "model/network.h"

namespace rd::graph {

/// A routing instance (paper §3.2): the maximal set of routing processes of
/// one protocol that share routing information, computed as the transitive
/// closure of adjacency. The closure stops at protocol boundaries and at
/// EBGP adjacencies between different AS numbers, so a BGP instance is one
/// AS's IBGP-connected mesh.
struct RoutingInstance {
  config::RoutingProtocol protocol = config::RoutingProtocol::kOspf;
  /// The AS number, for BGP instances.
  std::optional<std::uint32_t> bgp_as;
  std::vector<model::ProcessId> processes;
  /// Distinct routers hosting those processes (the paper reports instance
  /// sizes in routers, e.g. net5's 445-router EIGRP instance).
  std::vector<model::RouterId> routers;

  std::size_t router_count() const noexcept { return routers.size(); }
};

/// The partition of a network's routing processes into instances.
struct InstanceSet {
  std::vector<RoutingInstance> instances;
  /// process id -> index into `instances`.
  std::vector<std::uint32_t> instance_of;
};

/// Compute instances via union-find over adjacencies (production path).
/// With `failed` routers (sorted ascending), the partition after they fail:
/// the surviving processes closed over the adjacencies that join two
/// survivors, and each failed process left as an instance of its own.
/// Instances are numbered as without failures, by lowest member process.
InstanceSet compute_instances(const model::Network& network,
                              const std::vector<model::RouterId>& failed = {});

/// Same partition via explicit BFS flood fill (the paper's §3.2 narrative
/// description). Kept as an independent implementation: tests assert both
/// produce identical partitions, and the ablation bench compares their cost.
InstanceSet compute_instances_bfs(const model::Network& network);

/// Edges of the routing instance graph (paper Figure 6): the heavy lines
/// where route exchange crosses instances — redistribution between processes
/// of different instances, EBGP sessions between different ASs, and
/// connections to the external world.
struct InstanceEdge {
  enum class Kind : std::uint8_t {
    kRedistribution,  // routes flow from -> to, inside some router
    kEbgpSession,     // bidirectional route exchange between two instances
    kExternal,        // `from` exchanges routes with the outside world
  };
  Kind kind = Kind::kRedistribution;
  std::uint32_t from = 0;  // instance index
  std::uint32_t to = 0;    // instance index; == from for kExternal
  /// Router where the exchange happens (redistribution / session endpoint).
  model::RouterId router = model::kInvalidId;
  std::optional<std::string> policy;  // route-map name, when annotated
};

struct InstanceGraph {
  InstanceSet set;
  std::vector<InstanceEdge> edges;

  static InstanceGraph build(const model::Network& network);
};

}  // namespace rd::graph
