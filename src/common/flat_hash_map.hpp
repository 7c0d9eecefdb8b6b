// Open-addressing hash map for the simulator's per-UE lookup tables.
//
// std::unordered_map costs one allocation per node and a pointer chase per
// probe; at millions of UEs those dominate the control-plane hot path. This
// map stores slots contiguously (linear probing, power-of-two capacity,
// max load 7/8) with a separate one-byte control array, so lookups touch
// one cache line of metadata before the slot itself. Deletion uses
// tombstones: erasing never moves surviving elements, which keeps
// erase-during-iteration (CTA log scans, failure sweeps) valid and returns
// the next live slot, mirroring the std::unordered_map idiom the core code
// already uses.
//
// The API is the subset of std::unordered_map the core actually calls —
// find/end, operator[], try_emplace, erase(key), erase(iterator),
// contains, clear, size, range-for — plus an iterator-free `lookup()`
// returning V* for hot paths that don't want iterator plumbing, and
// `memory_bytes()` for per-owner table censuses.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hashing.hpp"

namespace neutrino {

/// Default hasher: std::hash then a full-avalanche finalizer. Identity
/// hashes (integers, StrongIds) would alias badly under the power-of-two
/// index mask without the mix.
template <typename K>
struct FlatHash {
  std::size_t operator()(const K& key) const {
    return static_cast<std::size_t>(
        mix64(static_cast<std::uint64_t>(std::hash<K>{}(key))));
  }
};

template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatHashMap {
  enum Ctrl : std::uint8_t { kEmpty = 0, kFull = 1, kTomb = 2 };
  using Slot = std::pair<K, V>;

  template <bool Const>
  class Iter {
    using MapPtr = std::conditional_t<Const, const FlatHashMap*, FlatHashMap*>;
    using Ref = std::conditional_t<Const, const Slot&, Slot&>;

   public:
    Iter() = default;
    Iter(MapPtr map, std::size_t idx) : map_(map), idx_(idx) { skip(); }

    Ref operator*() const { return map_->slots_[idx_]; }
    auto* operator->() const { return &map_->slots_[idx_]; }

    Iter& operator++() {
      ++idx_;
      skip();
      return *this;
    }

    friend bool operator==(const Iter& a, const Iter& b) {
      return a.idx_ == b.idx_;
    }
    friend bool operator!=(const Iter& a, const Iter& b) {
      return a.idx_ != b.idx_;
    }

   private:
    friend class FlatHashMap;
    void skip() {
      while (idx_ < map_->ctrl_.size() && map_->ctrl_[idx_] != kFull) ++idx_;
    }
    MapPtr map_ = nullptr;
    std::size_t idx_ = 0;
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatHashMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return ctrl_.size(); }
  /// Bytes of the slot and control arrays: capacity × (slot + 1 control
  /// byte). Depends on the insert history only, so it is deterministic;
  /// memory the mapped values own elsewhere is not counted.
  [[nodiscard]] std::size_t memory_bytes() const {
    return capacity() * (sizeof(Slot) + 1);
  }

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, ctrl_.size()}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, ctrl_.size()}; }

  /// Iterator-free lookup: pointer to the mapped value, or nullptr.
  [[nodiscard]] V* lookup(const K& key) {
    const std::size_t i = find_index(key);
    return i == npos ? nullptr : &slots_[i].second;
  }
  [[nodiscard]] const V* lookup(const K& key) const {
    const std::size_t i = find_index(key);
    return i == npos ? nullptr : &slots_[i].second;
  }

  [[nodiscard]] bool contains(const K& key) const {
    return find_index(key) != npos;
  }

  iterator find(const K& key) {
    const std::size_t i = find_index(key);
    return i == npos ? end() : iterator{this, i};
  }
  const_iterator find(const K& key) const {
    const std::size_t i = find_index(key);
    return i == npos ? end() : const_iterator{this, i};
  }

  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    grow_if_needed();
    const auto [idx, inserted] = insert_slot(key);
    if (inserted) slots_[idx].second = V(std::forward<Args>(args)...);
    return {iterator{this, idx}, inserted};
  }

  V& operator[](const K& key) {
    grow_if_needed();
    return slots_[insert_slot(key).first].second;
  }

  bool erase(const K& key) {
    const std::size_t i = find_index(key);
    if (i == npos) return false;
    erase_at(i);
    return true;
  }

  /// Tombstone the slot; surviving elements never move, so the returned
  /// next-live-slot iterator stays valid (erase-during-iteration).
  iterator erase(iterator it) {
    assert(it.map_ == this && ctrl_[it.idx_] == kFull);
    erase_at(it.idx_);
    ++it.idx_;
    it.skip();
    return it;
  }

  /// Drop all elements but keep the allocation (crash/reset paths cycle
  /// through clear() repeatedly).
  void clear() {
    for (std::size_t i = 0; i < ctrl_.size() && size_ > 0; ++i) {
      if (ctrl_[i] == kFull) {
        slots_[i] = Slot{};
        --size_;
      }
    }
    std::fill(ctrl_.begin(), ctrl_.end(), static_cast<std::uint8_t>(kEmpty));
    size_ = 0;
    used_ = 0;
  }

  /// Diagnostic: longest probe chain over all live keys — the distance
  /// from a key's home slot to where it resides, plus one. Tombstone
  /// buildup shows up here long before the load-factor ceiling trips.
  [[nodiscard]] std::size_t max_probe_length() const {
    std::size_t worst = 0;
    if (ctrl_.empty()) return worst;
    const std::size_t mask = ctrl_.size() - 1;
    for (std::size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] != kFull) continue;
      const std::size_t home = Hash{}(slots_[i].first) & mask;
      worst = std::max(worst, ((i - home) & mask) + 1);
    }
    return worst;
  }

  /// Pre-size so that `n` elements fit without rehashing.
  void reserve(std::size_t n) {
    std::size_t cap = ctrl_.empty() ? kMinCapacity : ctrl_.size();
    while (n * 8 > cap * 7) cap *= 2;
    if (cap > ctrl_.size()) rehash(cap);
  }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 16;

  [[nodiscard]] std::size_t find_index(const K& key) const {
    if (ctrl_.empty()) return npos;
    const std::size_t mask = ctrl_.size() - 1;
    const std::uint8_t* ctrl = ctrl_.data();
    std::size_t i = Hash{}(key)&mask;
    for (;;) {
      // One control-byte load per probe step; the byte array is the only
      // memory touched until the key slot itself is inspected.
      const std::uint8_t c = ctrl[i];
      if (c == kEmpty) return npos;
      if (c == kFull && slots_[i].first == key) return i;
      i = (i + 1) & mask;
    }
  }

  /// Find `key` or claim a slot for it. Returns (index, inserted).
  /// Caller must have ensured spare capacity (grow_if_needed).
  std::pair<std::size_t, bool> insert_slot(const K& key) {
    const std::size_t mask = ctrl_.size() - 1;
    std::size_t i = Hash{}(key)&mask;
    std::size_t first_tomb = npos;
    for (;;) {
      const std::uint8_t c = ctrl_[i];
      if (c == kEmpty) {
        const std::size_t dst = first_tomb != npos ? first_tomb : i;
        if (dst == i) ++used_;  // tombstone reuse doesn't raise occupancy
        ctrl_[dst] = kFull;
        slots_[dst].first = key;
        ++size_;
        return {dst, true};
      }
      if (c == kFull && slots_[i].first == key) return {i, false};
      if (c == kTomb && first_tomb == npos) first_tomb = i;
      i = (i + 1) & mask;
    }
  }

  void erase_at(std::size_t i) {
    slots_[i] = Slot{};  // release held resources (shared_ptrs, tasks)
    --size_;
    const std::size_t mask = ctrl_.size() - 1;
    if (ctrl_[(i + 1) & mask] != kEmpty) {
      // A probe chain may continue past this slot: the tombstone must
      // stay as a bridge.
      ctrl_[i] = kTomb;
      return;
    }
    // No probe chain extends past this slot, so neither it nor the run of
    // tombstones ending at it can be mid-chain: reclaim them. Without
    // this, erase/insert churn at a steady working set keeps growing
    // `used_` (every erase leaves a tombstone, every insert of a new key
    // may claim a fresh slot) until grow_if_needed rehashes — probe
    // chains lengthen toward the load-factor ceiling in between.
    std::size_t j = i;
    do {
      ctrl_[j] = kEmpty;
      --used_;
      j = (j + ctrl_.size() - 1) & mask;
    } while (ctrl_[j] == kTomb);
  }

  void grow_if_needed() {
    if (ctrl_.empty()) {
      rehash(kMinCapacity);
    } else if ((used_ + 1) * 8 > ctrl_.size() * 7) {
      // Rehash drops tombstones; double only when live elements actually
      // need the room, otherwise same-size to purge tombstone buildup.
      rehash(size_ * 8 > ctrl_.size() * 4 ? ctrl_.size() * 2 : ctrl_.size());
    }
  }

  void rehash(std::size_t new_cap) {
    std::vector<std::uint8_t> old_ctrl(new_cap, kEmpty);
    std::vector<Slot> old_slots(new_cap);
    old_ctrl.swap(ctrl_);
    old_slots.swap(slots_);
    size_ = 0;
    used_ = 0;
    for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] != kFull) continue;
      const auto [idx, inserted] = insert_slot(old_slots[i].first);
      assert(inserted);
      slots_[idx].second = std::move(old_slots[i].second);
    }
  }

  std::vector<std::uint8_t> ctrl_;
  std::vector<Slot> slots_;
  std::size_t size_ = 0;  // live elements
  std::size_t used_ = 0;  // live + tombstoned (probe-chain occupancy)
};

}  // namespace neutrino
