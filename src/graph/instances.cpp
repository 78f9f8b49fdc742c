#include "graph/instances.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <set>

namespace rd::graph {

namespace {

/// Adjacency in the instance sense: IGP adjacencies always join; BGP
/// sessions join only when both endpoints share an AS number (IBGP) — an
/// EBGP session is an instance boundary (paper §3.2).
struct ClosureEdges {
  std::vector<std::pair<model::ProcessId, model::ProcessId>> pairs;
};

ClosureEdges closure_edges(const model::Network& network) {
  ClosureEdges out;
  for (const auto& adj : network.igp_adjacencies()) {
    out.pairs.emplace_back(adj.process_a, adj.process_b);
  }
  for (const auto& session : network.bgp_sessions()) {
    if (session.external() || session.ebgp()) continue;
    out.pairs.emplace_back(session.local_process, session.remote_process);
  }
  return out;
}

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), rank_(n, 0) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }

  std::uint32_t find(std::uint32_t x) noexcept {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  void unite(std::uint32_t a, std::uint32_t b) noexcept {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (rank_[a] < rank_[b]) std::swap(a, b);
    parent_[b] = a;
    if (rank_[a] == rank_[b]) ++rank_[a];
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint8_t> rank_;
};

/// Assemble an InstanceSet from a per-process component label. Instances are
/// numbered by order of first appearance (lowest member process id), which
/// makes the result independent of how the labels were computed — the
/// equivalence property the tests rely on.
InstanceSet assemble(const model::Network& network,
                     const std::vector<std::uint32_t>& component) {
  InstanceSet result;
  result.instance_of.assign(network.processes().size(), 0);
  std::vector<std::int64_t> index_of_component(network.processes().size(), -1);
  for (model::ProcessId p = 0; p < network.processes().size(); ++p) {
    const std::uint32_t c = component[p];
    if (index_of_component[c] < 0) {
      index_of_component[c] =
          static_cast<std::int64_t>(result.instances.size());
      RoutingInstance instance;
      instance.protocol = network.processes()[p].protocol;
      if (instance.protocol == config::RoutingProtocol::kBgp) {
        instance.bgp_as = network.processes()[p].process_id;
      }
      result.instances.push_back(std::move(instance));
    }
    const auto idx = static_cast<std::uint32_t>(index_of_component[c]);
    result.instance_of[p] = idx;
    result.instances[idx].processes.push_back(p);
    result.instances[idx].routers.push_back(network.processes()[p].router);
  }
  for (auto& instance : result.instances) {
    auto& routers = instance.routers;
    std::sort(routers.begin(), routers.end());
    routers.erase(std::unique(routers.begin(), routers.end()), routers.end());
  }
  return result;
}

}  // namespace

InstanceSet compute_instances(const model::Network& network,
                              const std::vector<model::RouterId>& failed) {
  auto up = [&](model::ProcessId p) {
    return !std::binary_search(failed.begin(), failed.end(),
                               network.processes()[p].router);
  };
  UnionFind uf(network.processes().size());
  for (const auto& [a, b] : closure_edges(network).pairs) {
    if (up(a) && up(b)) uf.unite(a, b);
  }
  std::vector<std::uint32_t> component(network.processes().size());
  for (model::ProcessId p = 0; p < network.processes().size(); ++p) {
    component[p] = uf.find(p);
  }
  return assemble(network, component);
}

InstanceSet compute_instances_bfs(const model::Network& network) {
  // Build an explicit adjacency list, then flood fill, as §3.2 describes:
  // pick an unassigned process, BFS its closure, repeat.
  std::vector<std::vector<model::ProcessId>> neighbors(
      network.processes().size());
  for (const auto& [a, b] : closure_edges(network).pairs) {
    neighbors[a].push_back(b);
    neighbors[b].push_back(a);
  }
  std::vector<std::uint32_t> component(network.processes().size(),
                                       model::kInvalidId);
  for (model::ProcessId seed = 0; seed < network.processes().size(); ++seed) {
    if (component[seed] != model::kInvalidId) continue;
    std::queue<model::ProcessId> frontier;
    frontier.push(seed);
    component[seed] = seed;
    while (!frontier.empty()) {
      const model::ProcessId p = frontier.front();
      frontier.pop();
      for (const model::ProcessId q : neighbors[p]) {
        if (component[q] == model::kInvalidId) {
          component[q] = seed;
          frontier.push(q);
        }
      }
    }
  }
  return assemble(network, component);
}

InstanceGraph InstanceGraph::build(const model::Network& network) {
  InstanceGraph g;
  g.set = compute_instances(network);

  // Redistribution across instances.
  for (const auto& redist : network.redistribution_edges()) {
    if (redist.source_kind != model::RibKind::kProcess) continue;
    const std::uint32_t from = g.set.instance_of[redist.source_process];
    const std::uint32_t to = g.set.instance_of[redist.target_process];
    if (from == to) continue;
    g.edges.push_back({InstanceEdge::Kind::kRedistribution, from, to,
                       redist.router, redist.route_map});
  }

  // EBGP sessions: internal ones connect two instances; external ones (and
  // external-facing IGP adjacencies) connect an instance to the world.
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen_pairs;
  std::set<std::uint32_t> external_instances;
  for (const auto& session : network.bgp_sessions()) {
    const std::uint32_t from = g.set.instance_of[session.local_process];
    if (session.external()) {
      if (external_instances.insert(from).second) {
        g.edges.push_back(
            {InstanceEdge::Kind::kExternal, from, from,
             network.processes()[session.local_process].router,
             std::nullopt});
      }
      continue;
    }
    if (!session.ebgp()) continue;  // IBGP merged into one instance already
    const std::uint32_t to = g.set.instance_of[session.remote_process];
    const auto key = std::minmax(from, to);
    if (!seen_pairs.insert(key).second) continue;
    g.edges.push_back({InstanceEdge::Kind::kEbgpSession, key.first,
                       key.second,
                       network.processes()[session.local_process].router,
                       std::nullopt});
  }
  for (const auto& ext : network.external_igp_adjacencies()) {
    const std::uint32_t from = g.set.instance_of[ext.process];
    if (external_instances.insert(from).second) {
      g.edges.push_back({InstanceEdge::Kind::kExternal, from, from,
                         network.processes()[ext.process].router,
                         std::nullopt});
    }
  }
  return g;
}

}  // namespace rd::graph
