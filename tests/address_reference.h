#pragma once

// The paper's §3.4 address-block join as first written, kept as the
// reference for the roots of `graph::extract_address_structure`: every pass
// rebuilds the prefix sums over the sorted cover, scans every adjacent
// pair, and joins the one eligible block with the longest common ancestor,
// lowest address first. Quadratic in the number of subnets; no product
// path reaches it.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ip/ipv4.h"

namespace rd::ip::reference {

// Lowest common ancestor of two prefixes in the binary prefix tree.
inline Prefix lowest_common_ancestor(const Prefix& a,
                                     const Prefix& b) noexcept {
  const std::uint32_t xa = a.network().value();
  const std::uint32_t xb = b.network().value();
  int length = std::min(a.length(), b.length());
  const std::uint32_t diff = xa ^ xb;
  if (diff != 0) {
    // Highest differing bit bounds the common length from above.
    int highest = 31;
    while (((diff >> highest) & 1u) == 0) --highest;
    length = std::min(length, 31 - highest);
  }
  return Prefix(a.network(), length);
}

inline bool prefix_less(const Prefix& a, const Prefix& b) noexcept {
  if (a.network() != b.network()) return a.network() < b.network();
  return a.length() < b.length();
}

/// Remove duplicates and prefixes wholly contained in another input prefix.
inline std::vector<Prefix> remove_contained(std::vector<Prefix> prefixes) {
  std::sort(prefixes.begin(), prefixes.end(), prefix_less);
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()),
                 prefixes.end());
  std::vector<Prefix> out;
  out.reserve(prefixes.size());
  for (const Prefix& p : prefixes) {
    // Sorted order guarantees a container, if any, appears earlier, and the
    // most recent survivor is the only candidate container.
    if (!out.empty() && out.back().contains(p)) continue;
    out.push_back(p);
  }
  return out;
}

/// The paper's address-structure join rule (§3.4): repeatedly join two
/// subnets whose network numbers differ in no more than the two low-order
/// bits of the shorter mask — i.e. expand a prefix as long as at least half
/// of the enlarged block is "used" by input subnets. Returns the roots of the
/// resulting cover (deduplicated, contained prefixes removed), sorted by
/// network address.
inline std::vector<Prefix> cover_half_used(std::vector<Prefix> prefixes) {
  std::vector<Prefix> current = remove_contained(std::move(prefixes));
  // Prefix sums over the sorted, disjoint set let us compute "addresses used
  // inside a candidate block" with two binary searches.
  while (current.size() > 1) {
    std::vector<std::uint64_t> cum(current.size() + 1, 0);
    for (std::size_t i = 0; i < current.size(); ++i) {
      cum[i + 1] = cum[i] + current[i].size();
    }
    auto used_inside = [&](const Prefix& block) {
      // All current prefixes are disjoint; those inside `block` form a
      // contiguous run in sorted order.
      const auto lo = std::lower_bound(
          current.begin(), current.end(), block.network(),
          [](const Prefix& p, Ipv4Address a) { return p.network() < a; });
      auto hi = lo;
      while (hi != current.end() && block.contains(*hi)) ++hi;
      const auto lo_i = static_cast<std::size_t>(lo - current.begin());
      const auto hi_i = static_cast<std::size_t>(hi - current.begin());
      return cum[hi_i] - cum[lo_i];
    };

    // Only adjacent pairs in sorted order can realize a minimal join; pick
    // the join with the longest (smallest) resulting block so the tree is
    // built bottom-up, mirroring the paper's incremental expansion.
    int best_length = -1;
    Prefix best_block;
    for (std::size_t i = 0; i + 1 < current.size(); ++i) {
      const Prefix lca = lowest_common_ancestor(current[i], current[i + 1]);
      // "Differ in no more than the least two bits": the joined block may
      // expand each member by at most two mask bits.
      const int shorter = std::min(current[i].length(), current[i + 1].length());
      if (shorter - lca.length() > 2) continue;
      if (lca.length() == 0) continue;
      if (used_inside(lca) * 2 < lca.size()) continue;  // < half used
      if (lca.length() > best_length) {
        best_length = lca.length();
        best_block = lca;
      }
    }
    if (best_length < 0) break;

    std::vector<Prefix> next;
    next.reserve(current.size());
    bool inserted = false;
    for (const Prefix& p : current) {
      if (best_block.contains(p)) {
        if (!inserted) {
          next.push_back(best_block);
          inserted = true;
        }
      } else {
        next.push_back(p);
      }
    }
    current = remove_contained(std::move(next));
  }
  return current;
}

}  // namespace rd::ip::reference
