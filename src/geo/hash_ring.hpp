// Consistent hash ring with virtual nodes.
//
// core::System keeps the §4.3 placement in these: a level-1 ring per
// region over its CPFs (primary selection) and a level-2 ring per level-2
// region over all of its CPFs (backup placement, walked past the home
// region's CPFs). Virtual nodes smooth the key distribution; ring
// positions use a stable hash so placement is identical across runs and
// standard libraries.
#pragma once

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/hashing.hpp"

namespace neutrino::geo {

template <typename NodeT>
class ConsistentHashRing {
 public:
  explicit ConsistentHashRing(int vnodes_per_node = 32)
      : vnodes_per_node_(vnodes_per_node) {}

  void add(NodeT node, std::uint64_t node_seed) {
    assert(!contains(node));
    for (int replica = 0; replica < vnodes_per_node_; ++replica) {
      const std::uint64_t pos =
          hash_combine(mix64(node_seed), static_cast<std::uint64_t>(replica));
      ring_.push_back({pos, node});
    }
    std::sort(ring_.begin(), ring_.end());
    // Membership is kept sorted (not insertion-ordered) so a ring reached
    // through any join/leave sequence is bit-identical to one built fresh
    // from the final membership — the elastic differential tests pin this.
    nodes_.insert(std::lower_bound(nodes_.begin(), nodes_.end(), node), node);
  }

  void remove(NodeT node) {
    std::erase_if(ring_, [&](const Entry& e) { return e.node == node; });
    std::erase(nodes_, node);
  }

  [[nodiscard]] bool empty() const { return ring_.empty(); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const std::vector<NodeT>& nodes() const { return nodes_; }
  [[nodiscard]] bool contains(NodeT node) const {
    return std::binary_search(nodes_.begin(), nodes_.end(), node);
  }

  /// Order-insensitive structural hash of the ring: every virtual node's
  /// (position, owner) pair folded in ring order. Two rings with the same
  /// digest route every key identically.
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t d = 0x6e657574726978ULL;
    for (const Entry& e : ring_) {
      d = hash_combine(d, e.position);
      d = hash_combine(d, static_cast<std::uint64_t>(e.node.value()));
    }
    return d;
  }

  friend bool operator==(const ConsistentHashRing& a,
                         const ConsistentHashRing& b) {
    return a.vnodes_per_node_ == b.vnodes_per_node_ && a.ring_ == b.ring_ &&
           a.nodes_ == b.nodes_;
  }

  /// Owner of a key: first virtual node clockwise from the key's position.
  [[nodiscard]] NodeT lookup(std::uint64_t key) const {
    assert(!ring_.empty());
    return walk(key).node;
  }

  /// The first `n` *distinct* nodes clockwise from the key — the placement
  /// used for "N consecutive replicas on a level-2 ring" (§4.3).
  [[nodiscard]] std::vector<NodeT> successors(std::uint64_t key,
                                              std::size_t n) const {
    return successors(key, n, [](NodeT) { return false; });
  }

  /// successors() passing over every node for which `skip(node)` is true:
  /// the same answer as a ring built without those nodes, since removing
  /// nodes leaves the other virtual nodes in the same order.
  template <typename Skip>
  [[nodiscard]] std::vector<NodeT> successors(std::uint64_t key, std::size_t n,
                                              Skip skip) const {
    std::vector<NodeT> out;
    if (ring_.empty()) return out;
    const std::uint64_t pos = mix64(key);
    auto it = std::lower_bound(ring_.begin(), ring_.end(), pos,
                               [](const Entry& e, std::uint64_t p) {
                                 return e.position < p;
                               });
    for (std::size_t hops = 0; hops < ring_.size() && out.size() < n;
         ++hops) {
      if (it == ring_.end()) it = ring_.begin();
      if (!skip(it->node) &&
          std::find(out.begin(), out.end(), it->node) == out.end()) {
        out.push_back(it->node);
      }
      ++it;
    }
    return out;
  }

 private:
  struct Entry {
    std::uint64_t position;
    NodeT node;
    friend bool operator<(const Entry& a, const Entry& b) {
      if (a.position != b.position) return a.position < b.position;
      return a.node < b.node;
    }
    friend bool operator==(const Entry& a, const Entry& b) {
      return a.position == b.position && a.node == b.node;
    }
  };

  [[nodiscard]] const Entry& walk(std::uint64_t key) const {
    const std::uint64_t pos = mix64(key);
    auto it = std::lower_bound(ring_.begin(), ring_.end(), pos,
                               [](const Entry& e, std::uint64_t p) {
                                 return e.position < p;
                               });
    if (it == ring_.end()) it = ring_.begin();
    return *it;
  }

  int vnodes_per_node_;
  std::vector<Entry> ring_;
  std::vector<NodeT> nodes_;
};

}  // namespace neutrino::geo
