#include "graph/address_space.h"

#include <algorithm>

namespace rd::graph {

namespace {

using ip::Ipv4Address;
using ip::Prefix;

Prefix lowest_common_ancestor(const Prefix& a, const Prefix& b) noexcept {
  const std::uint32_t diff = a.network().value() ^ b.network().value();
  int length = std::min(a.length(), b.length());
  if (diff != 0) {
    int highest = 31;
    while (((diff >> highest) & 1u) == 0) --highest;
    length = std::min(length, 31 - highest);
  }
  return Prefix(a.network(), length);
}

/// An active entry in the join loop: a currently-maximal block and its node.
struct Active {
  Prefix block;
  std::uint32_t node;
};

}  // namespace

std::vector<Prefix> AddressSpaceStructure::root_blocks() const {
  std::vector<Prefix> out;
  out.reserve(roots.size());
  for (const std::uint32_t r : roots) out.push_back(nodes[r].block);
  std::sort(out.begin(), out.end());
  return out;
}

std::int32_t AddressSpaceStructure::root_containing(Ipv4Address addr) const {
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (nodes[roots[i]].block.contains(addr)) {
      return static_cast<std::int32_t>(i);
    }
  }
  return -1;
}

AddressSpaceStructure extract_address_structure(std::vector<Prefix> subnets) {
  AddressSpaceStructure out;
  std::sort(subnets.begin(), subnets.end(), [](const Prefix& a,
                                               const Prefix& b) {
    if (a.network() != b.network()) return a.network() < b.network();
    return a.length() < b.length();
  });
  subnets.erase(std::unique(subnets.begin(), subnets.end()), subnets.end());

  // Leaf nodes. Subnets contained in an earlier (shorter) subnet become
  // children of their deepest container immediately; only maximal subnets
  // stay active for the join loop.
  std::vector<Active> active;
  std::vector<Active> containers;  // chain of nested containers (stack)
  for (const Prefix& subnet : subnets) {
    while (!containers.empty() && !containers.back().block.contains(subnet)) {
      containers.pop_back();
    }
    const auto id = static_cast<std::uint32_t>(out.nodes.size());
    out.nodes.push_back({subnet, -1, {}, true});
    if (!containers.empty()) {
      out.nodes[id].parent = static_cast<std::int32_t>(containers.back().node);
      out.nodes[containers.back().node].children.push_back(id);
    } else {
      active.push_back({subnet, id});
    }
    containers.push_back({subnet, id});
  }

  // Greedy join loop — the paper's §3.4 rule: join the eligible adjacent
  // pair whose lowest common ancestor (LCA) is longest, lowest address
  // first. A join at block B changes only pairs whose LCA strictly contains
  // B, and distinct eligible LCAs of one length are disjoint, so joining one
  // leaves the others eligible: a loop that joins one pair per pass takes
  // every eligible LCA of the longest length, in ascending order, before any
  // shorter one. Each pass here joins that whole batch in one merge
  // (DESIGN.md §5), so the length falls from pass to pass.
  std::vector<std::uint64_t> cum;
  std::vector<Prefix> joins;
  std::vector<Active> next;
  while (active.size() > 1) {
    // Active blocks are disjoint and sorted, so prefix sums give "addresses
    // used inside a candidate block". A candidate is the LCA of two active
    // blocks, so no active block strictly contains it, and the blocks
    // inside it are those whose network address falls within it.
    cum.assign(active.size() + 1, 0);
    for (std::size_t i = 0; i < active.size(); ++i) {
      cum[i + 1] = cum[i] + active[i].block.size();
    }
    auto used_inside = [&](const Prefix& block) {
      const auto lo = std::lower_bound(
          active.begin(), active.end(), block.network(),
          [](const Active& a, Ipv4Address v) { return a.block.network() < v; });
      const auto hi = std::upper_bound(
          lo, active.end(), block.last_address(),
          [](Ipv4Address v, const Active& a) { return v < a.block.network(); });
      return cum[static_cast<std::size_t>(hi - active.begin())] -
             cum[static_cast<std::size_t>(lo - active.begin())];
    };

    joins.clear();
    int best_length = -1;
    for (std::size_t i = 0; i + 1 < active.size(); ++i) {
      const Prefix lca =
          lowest_common_ancestor(active[i].block, active[i + 1].block);
      const int shorter =
          std::min(active[i].block.length(), active[i + 1].block.length());
      if (shorter - lca.length() > 2) continue;  // > two low-order bits apart
      if (lca.length() == 0 || lca.length() < best_length) continue;
      if (used_inside(lca) * 2 < lca.size()) continue;  // < half used
      if (lca.length() > best_length) {
        best_length = lca.length();
        joins.clear();
      }
      // Pairs sharing one LCA enclose only pairs with longer LCAs, never
      // another LCA of this length: a repeat is always the last one kept.
      if (joins.empty() || joins.back() != lca) joins.push_back(lca);
    }
    if (joins.empty()) break;

    next.clear();
    std::size_t j = 0;
    for (const Prefix& block : joins) {
      while (!block.contains(active[j].block)) next.push_back(active[j++]);
      const auto parent_id = static_cast<std::uint32_t>(out.nodes.size());
      out.nodes.push_back({block, -1, {}, false});
      next.push_back({block, parent_id});
      for (; j < active.size() && block.contains(active[j].block); ++j) {
        out.nodes[active[j].node].parent =
            static_cast<std::int32_t>(parent_id);
        out.nodes[parent_id].children.push_back(active[j].node);
      }
    }
    next.insert(next.end(), active.begin() + static_cast<std::ptrdiff_t>(j),
                active.end());
    active.swap(next);
  }

  out.roots.reserve(active.size());
  for (const Active& a : active) out.roots.push_back(a.node);
  return out;
}

AddressSpaceStructure extract_address_structure(
    const model::Network& network) {
  return extract_address_structure(network.interface_subnets());
}

std::vector<std::vector<std::uint32_t>> blocks_per_instance(
    const model::Network& network, const InstanceSet& instances,
    const AddressSpaceStructure& structure) {
  std::vector<std::vector<std::uint32_t>> out(instances.instances.size());
  for (std::size_t i = 0; i < instances.instances.size(); ++i) {
    std::vector<std::uint32_t> blocks;
    auto note_subnet = [&](const ip::Prefix& subnet) {
      const std::int32_t root = structure.root_containing(subnet.network());
      if (root >= 0) blocks.push_back(static_cast<std::uint32_t>(root));
    };
    for (const model::ProcessId p : instances.instances[i].processes) {
      const auto& process = network.processes()[p];
      if (config::is_conventional_igp(process.protocol)) {
        for (const model::InterfaceId itf : process.covered_interfaces) {
          if (network.interfaces()[itf].subnet) {
            note_subnet(*network.interfaces()[itf].subnet);
          }
        }
      } else {
        const auto& stanza = network.routers()[process.router]
                                 .router_stanzas[process.stanza_index];
        for (const auto& ns : stanza.networks) note_subnet(ns.prefix());
      }
    }
    std::sort(blocks.begin(), blocks.end());
    blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
    out[i] = std::move(blocks);
  }
  return out;
}

std::vector<MissingRouterSuspect> detect_missing_routers(
    const model::Network& network, const AddressSpaceStructure& structure,
    double internal_fraction_threshold) {
  // Tally interfaces per root block.
  struct Tally {
    std::size_t internal = 0;
    std::size_t external = 0;
    std::vector<model::InterfaceId> external_interfaces;
  };
  std::vector<Tally> tallies(structure.roots.size());
  for (model::InterfaceId i = 0; i < network.interfaces().size(); ++i) {
    const auto& itf = network.interfaces()[i];
    if (!itf.address) continue;
    const std::int32_t root = structure.root_containing(*itf.address);
    if (root < 0) continue;
    auto& tally = tallies[static_cast<std::size_t>(root)];
    if (itf.external_facing) {
      ++tally.external;
      tally.external_interfaces.push_back(i);
    } else {
      ++tally.internal;
    }
  }

  std::vector<MissingRouterSuspect> out;
  for (std::size_t b = 0; b < tallies.size(); ++b) {
    const auto& tally = tallies[b];
    const std::size_t total = tally.internal + tally.external;
    if (total < 5 || tally.external == 0) continue;  // too small to judge
    const double internal_fraction =
        static_cast<double>(tally.internal) / static_cast<double>(total);
    if (internal_fraction < internal_fraction_threshold) continue;
    for (const model::InterfaceId i : tally.external_interfaces) {
      out.push_back({i, static_cast<std::uint32_t>(b), internal_fraction});
    }
  }
  return out;
}

}  // namespace rd::graph
