#pragma once

#include <cstdint>
#include <vector>

#include "analysis/reachability.h"
#include "graph/instances.h"
#include "model/network.h"

namespace rd::analysis {

/// Route selection into the per-router RIB (paper §2.3, Figure 3).
///
/// Each routing process RIB holds the routes of its instance (from the
/// ReachabilityAnalysis fixpoint); the local RIB holds connected subnets and
/// static routes. The router RIB selects, per prefix, the source with the
/// lowest administrative distance — the standard IOS ranking:
///   connected 0, static 1, EBGP 20, EIGRP 90, OSPF 110, RIP 120, IBGP 200.
/// This answers the §3.1 questions "what destinations will be reachable
/// from a particular router" and "how many routes will a routing process
/// have to handle".
enum class RouteSource : std::uint8_t {
  kConnected,
  kStatic,
  kEbgp,
  kEigrp,
  kOspf,
  kRip,
  kIbgp,
};

std::uint32_t administrative_distance(RouteSource source) noexcept;
std::string_view to_string(RouteSource source) noexcept;

struct SelectedRoute {
  ip::Prefix prefix;
  RouteSource source = RouteSource::kConnected;
  /// The process the route was selected from; kInvalidId for local routes.
  model::ProcessId process = model::kInvalidId;
};

class RouterRibAnalysis {
 public:
  /// Compute every router's RIB from the instance-level fixpoint. A tie in
  /// distance goes to the earliest offer: local routes first, then the
  /// router's processes in `router_processes` order.
  static RouterRibAnalysis run(const model::Network& network,
                               const graph::InstanceSet& instances,
                               const ReachabilityAnalysis& reachability);

  /// The selected routes of one router, ordered by prefix.
  const std::vector<SelectedRoute>& rib(model::RouterId router) const {
    return ribs_[router];
  }

  /// Number of routes each process must carry (its instance's route count)
  /// — the §3.1 process-load question.
  std::size_t process_load(model::ProcessId process) const {
    return process_load_[process];
  }

  /// True when the router's RIB covers the address.
  bool router_can_reach(model::RouterId router, ip::Ipv4Address addr) const;

  /// Routers whose RIB holds the default route (0.0.0.0/0).
  std::vector<model::RouterId> routers_with_default_route() const;

  /// Distribution of RIB sizes across routers (for load reporting).
  std::vector<std::size_t> rib_sizes() const;

 private:
  std::vector<std::vector<SelectedRoute>> ribs_;
  std::vector<std::size_t> process_load_;
  std::vector<bool> has_default_;
};

}  // namespace rd::analysis
