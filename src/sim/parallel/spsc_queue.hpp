// Bounded single-producer/single-consumer channel for cross-shard messages.
//
// One channel exists per ordered shard pair (src → dst). During a
// conservative time window only the lane that owns shard src touches it
// (lock-free, allocation-free pushes into a fixed ring); the lane that owns
// dst drains it between the window's done barrier and the next start
// barrier, while src's lane is busy draining its own inbound channels and
// pushes nothing. The done barrier's acquire/release handshake is the
// synchronization edge that makes the spill vector and ring contents
// visible to the drainer, and the start barrier orders the drain before the
// next window's pushes — the channel itself only needs acquire/release on
// head/tail for the ring fast path.
//
// Overflow policy: once the ring fills mid-window, subsequent pushes go to
// a producer-local spill vector (amortized allocation). drain() replays
// ring first, then spill — exactly FIFO, because after the first spill no
// push re-enters the ring until the next barrier empties both. Bursty
// cross-shard storms therefore degrade to vector pushes instead of
// dropping or blocking, and determinism is unaffected.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace neutrino::sim::parallel {

template <class T>
class SpscChannel {
 public:
  /// `capacity` must be a power of two (ring slots reserved up front).
  /// The spill vector is also reserved ahead to the ring's capacity: the
  /// first overflow window then degrades to plain stores instead of a
  /// reallocation storm, and because drain() clears without shrinking,
  /// the buffer is reused across every subsequent window boundary.
  explicit SpscChannel(std::size_t capacity = 1024)
      : mask_(capacity - 1), slots_(capacity) {
    assert(capacity >= 2 && (capacity & (capacity - 1)) == 0);
    spill_.reserve(capacity);
  }

  SpscChannel(SpscChannel&& other) noexcept
      : mask_(other.mask_),
        slots_(std::move(other.slots_)),
        spill_(std::move(other.spill_)) {
    head_.store(other.head_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    tail_.store(other.tail_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  }

  /// Producer-only. Never blocks, never drops.
  void push(T value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (spill_.empty() &&
        tail - head_.load(std::memory_order_acquire) <= mask_) {
      slots_[static_cast<std::size_t>(tail) & mask_] = std::move(value);
      tail_.store(tail + 1, std::memory_order_release);
      return;
    }
    spill_.push_back(std::move(value));
  }

  /// Consumer-only, and only while the producer is quiesced between
  /// barriers.
  /// Invokes `fn(T&&)` for every queued entry in push order and leaves the
  /// channel empty. Returns the number drained.
  template <class Fn>
  std::size_t drain(Fn&& fn) {
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    std::size_t n = 0;
    for (; head != tail; ++head, ++n) {
      fn(std::move(slots_[static_cast<std::size_t>(head) & mask_]));
    }
    head_.store(head, std::memory_order_release);
    // The producer is quiesced: spill_ is safe to touch (barrier edge).
    for (T& v : spill_) {
      fn(std::move(v));
      ++n;
    }
    spill_.clear();
    return n;
  }

  /// Consumer-side emptiness probe (same quiescence requirement as drain).
  [[nodiscard]] bool empty() const {
    return head_.load(std::memory_order_relaxed) ==
               tail_.load(std::memory_order_acquire) &&
           spill_.empty();
  }

 private:
  // head_ and tail_ on separate cache lines so producer stores don't
  // false-share with consumer drains.
  alignas(64) std::atomic<std::uint64_t> head_{0};  // consumer cursor
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // producer cursor
  std::uint64_t mask_;
  std::vector<T> slots_;
  std::vector<T> spill_;  // producer-local overflow, FIFO after the ring
};

}  // namespace neutrino::sim::parallel
