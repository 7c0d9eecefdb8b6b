// Deterministic discrete-event loop, nanosecond resolution.
//
// Replaces the paper's DPDK testbed as the execution substrate (see
// DESIGN.md §2): all latency figures in the PCT experiments emerge from
// events scheduled here — propagation delays, per-message service times,
// failure timers. Determinism (stable tie-break by insertion sequence)
// makes every experiment and test exactly reproducible.
//
// Internals are built for million-UE storms: a 4-ary implicit heap over
// small-buffer-optimized InlineTask callbacks (no per-event allocation for
// captures ≤ 48 bytes), fronted by a hashed timer wheel that absorbs the
// dominant near-future fixed-delay schedules. Ordering is bit-for-bit
// identical to a (when, seq) priority queue regardless of which structure
// an event lands in: the wheel drains one granularity tick at a time into
// a sorted buffer that is merged against the heap strictly by (when, seq).
//
// Pre-planned streams (trace replay, periodic samplers) do not sit in the
// queue whole: schedule_stream() reserves one sequence number per event
// and queues only the stream's next event, which releases the one after
// it when it fires. The queue holds O(streams) events instead of one per
// arrival or tick, and the dispatch order is the one scheduling every
// event of the stream up front would give (DESIGN.md §10).
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cinttypes>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/clock.hpp"
#include "sim/inline_task.hpp"

namespace neutrino::sim {

/// Source of a pre-planned event stream (EventLoop::schedule_stream).
/// Event k (k = 0 .. size()-1, in dispatch order) fires at `when(k)` with
/// sequence number base + `offset(k)`, where offsets are the events'
/// distinct positions in the stream's reserved block [0, size()); keys
/// (when, offset) must strictly increase with k. `fire(k)` runs event k.
template <class S>
concept EventStreamSource =
    requires(S& source, const S& view, std::uint64_t k) {
      { view.size() } -> std::convertible_to<std::uint64_t>;
      { view.when(k) } -> std::same_as<SimTime>;
      { view.offset(k) } -> std::convertible_to<std::uint64_t>;
      source.fire(k);
    };

// Cache-line aligned: sharded runs keep one loop per shard in a dense
// vector, and the hot scalar block (now_/pending_/drain cursor) of one
// shard must not false-share with its neighbor's.
class alignas(64) EventLoop {
 public:
  using Callback = InlineTask;

  /// Wheel geometry. Pure optimization: where an event waits never
  /// changes the order it runs in.
  struct Config {
    /// Width of one wheel tick. Events within the same tick are sorted
    /// on drain, so granularity only trades bucket count vs sort size.
    std::int64_t wheel_granularity_ns = 1'000;
    /// Number of ticks the wheel spans (must be a power of two). Events
    /// beyond `granularity * slots` from the cursor go to the heap.
    std::size_t wheel_slots = 4096;
  };

  EventLoop() : EventLoop(Config{}) {}

  explicit EventLoop(const Config& config)
      : granule_(config.wheel_granularity_ns), slots_(config.wheel_slots) {
    assert(granule_ > 0);
    assert(slots_ >= 2 && (slots_ & (slots_ - 1)) == 0);
    buckets_.resize(slots_);
    occupancy_.assign((slots_ + 63) / 64, 0);
  }

  [[nodiscard]] SimTime now() const { return now_; }

  void schedule_at(SimTime when, Callback cb) {
    insert(Event{when, next_seq_++, std::move(cb)});
  }

  void schedule_after(SimTime delay, Callback cb) {
    schedule_at(now_ + delay, std::move(cb));
  }

  /// Register a pre-planned stream of `source.size()` events. The stream
  /// reserves that many consecutive sequence numbers, so each event runs
  /// under the (when, seq) key it would have had if all of them had been
  /// scheduled here, in offset order, with schedule_at(). Only the next
  /// event waits in the queue (pending() counts it once); firing it
  /// releases the one after, and the loop frees the source once the
  /// stream drains. The queued event holds this loop's address, so the
  /// loop must not move while a stream is pending. A stream whose keys do
  /// not strictly increase aborts the run in every build.
  template <EventStreamSource Source>
  void schedule_stream(Source source) {
    const std::uint64_t n = source.size();
    const std::uint64_t base = next_seq_;
    next_seq_ += n;
    if (n == 0) return;
    auto stream = std::make_unique<Stream<Source>>(
        Stream<Source>{std::move(source), base, 0});
    const SimTime when = stream->source.when(0);
    const std::uint64_t seq = base + stream->source.offset(0);
    insert(Event{when, seq, StreamStep<Source>{this, std::move(stream)}});
  }

  /// Run events until the queue drains or the horizon passes. Events at
  /// exactly `horizon` still run. Fused peek+pop: the (drain, heap) front
  /// comparison runs once per event instead of once in next_when() and
  /// again in pop_next() — this is the sharded-dispatch hot loop.
  void run_until(SimTime horizon) {
    while (pending_ > 0) {
      maybe_refill();
      if (drain_pos_ < drain_.size() &&
          (heap_.empty() || before(drain_[drain_pos_], heap_[0]))) {
        Event& front = drain_[drain_pos_];
        if (front.when > horizon) break;
        ++drain_pos_;
        now_ = front.when;
        --pending_;
        ++executed_;
        InlineTask task = std::move(front.task);
        task();
      } else {
        if (heap_[0].when > horizon) break;
        Event ev = heap_pop();
        now_ = ev.when;
        --pending_;
        ++executed_;
        ev.task();
      }
    }
    if (now_ < horizon) now_ = horizon;
  }

  /// Run until no events remain.
  void run() {
    while (pending_ > 0) step();
  }

  /// Timestamp of the earliest pending event, or SimTime::max() when the
  /// queue is empty. The conservative-window scheduler in sim/parallel
  /// keys its fast-forward off this (drain-until probe); may sort a wheel
  /// tick into the drain buffer, hence non-const.
  [[nodiscard]] SimTime next_time() {
    return pending_ == 0 ? SimTime::max() : next_when();
  }

  [[nodiscard]] bool empty() const { return pending_ == 0; }
  /// Events waiting in the queue; a stream counts once, however many of
  /// its events are still to come.
  [[nodiscard]] std::size_t pending() const { return pending_; }
  /// Total events dispatched over the loop's lifetime (throughput counter).
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;  // deterministic FIFO tie-break at equal times
    InlineTask task;
  };

  static bool before(const Event& a, const Event& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  template <class Source>
  struct Stream {
    Source source;
    std::uint64_t base;  // first reserved sequence number
    std::uint64_t next;  // index of the event waiting in the queue
  };

  /// The queued event of a stream: owns the stream, runs its event, then
  /// queues the next one under that event's reserved key. 16 bytes, so it
  /// rides in InlineTask's buffer without an allocation per event.
  template <class Source>
  struct StreamStep {
    EventLoop* loop;
    std::unique_ptr<Stream<Source>> stream;

    void operator()() {
      Stream<Source>& s = *stream;
      const std::uint64_t k = s.next++;
      s.source.fire(k);
      if (s.next == s.source.size()) return;  // drained: freed with the step
      const SimTime when = s.source.when(s.next);
      const std::uint64_t seq = s.base + s.source.offset(s.next);
      const SimTime prev_when = s.source.when(k);
      const std::uint64_t prev_seq = s.base + s.source.offset(k);
      if (when < prev_when || (when == prev_when && seq <= prev_seq))
          [[unlikely]] {
        stream_order_violation(prev_when, prev_seq, when, seq);
      }
      loop->insert(Event{when, seq, StreamStep{loop, std::move(stream)}});
    }
  };

  [[gnu::cold, gnu::noinline]] [[noreturn]] static void
  stream_order_violation(SimTime prev_when, std::uint64_t prev_seq,
                         SimTime when, std::uint64_t seq) {
    std::fprintf(stderr,
                 "EventLoop: stream keys must increase: (%" PRId64
                 "ns, seq %" PRIu64 ") is followed by (%" PRId64
                 "ns, seq %" PRIu64 ")\n",
                 prev_when.ns(), prev_seq, when.ns(), seq);
    std::abort();
  }

  /// Queue one event under its (when, seq) key: near-future ticks go to
  /// the wheel, everything else to the heap.
  void insert(Event ev) {
    ++pending_;
    if (wheel_count_ == 0 && drain_pos_ >= drain_.size()) {
      // Wheel idle: snap the cursor forward so the window covers the
      // near future again (it can never move backwards — events below
      // the cursor would desync from the drained-tick invariant).
      cursor_tick_ = std::max(cursor_tick_, tick_of(now_));
    }
    const std::int64_t tick = tick_of(ev.when);
    if (tick >= cursor_tick_ &&
        static_cast<std::uint64_t>(tick - cursor_tick_) < slots_) {
      const std::size_t slot = static_cast<std::size_t>(tick) & (slots_ - 1);
      buckets_[slot].push_back(std::move(ev));
      occupancy_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
      ++wheel_count_;
      return;
    }
    heap_push(std::move(ev));
  }

  [[nodiscard]] std::int64_t tick_of(SimTime t) const {
    // Floor division; negative times (never scheduled in practice) would
    // round toward zero, so route them through the < cursor heap path.
    return t.ns() / granule_;
  }

  void step() {
    Event ev = pop_next();
    now_ = ev.when;
    --pending_;
    ++executed_;
    ev.task();
  }

  /// Timestamp of the next event; only valid when pending_ > 0.
  SimTime next_when() {
    maybe_refill();
    const bool have_drain = drain_pos_ < drain_.size();
    if (!have_drain) return heap_[0].when;
    if (heap_.empty() || before(drain_[drain_pos_], heap_[0]))
      return drain_[drain_pos_].when;
    return heap_[0].when;
  }

  Event pop_next() {
    maybe_refill();
    if (drain_pos_ < drain_.size() &&
        (heap_.empty() || before(drain_[drain_pos_], heap_[0]))) {
      return std::move(drain_[drain_pos_++]);
    }
    return heap_pop();
  }

  /// Lazy wheel drain: refill only when the wheel's next occupied tick
  /// can actually precede the heap front. Draining eagerly would advance
  /// the cursor across empty ticks while earlier heap events still run,
  /// and their near-future successors would then land below the cursor
  /// and be exiled to the heap for good — the wheel starves. Acute in
  /// sharded runs, whose per-shard wheels are ~N× sparser (the cursor
  /// used to overshoot now_ by ~66 ticks on the 8-shard storm).
  void maybe_refill() {
    if (drain_pos_ < drain_.size() || wheel_count_ == 0) return;
    if (!heap_.empty() && tick_of(heap_[0].when) < wheel_next_tick()) {
      return;  // heap front strictly precedes any wheel event
    }
    refill_drain();
  }

  /// Tick of the earliest occupied wheel slot (wheel_count_ > 0 only);
  /// does not move the cursor.
  [[nodiscard]] std::int64_t wheel_next_tick() const {
    const std::size_t start =
        static_cast<std::size_t>(cursor_tick_) & (slots_ - 1);
    return cursor_tick_ + static_cast<std::int64_t>(next_occupied_offset(start));
  }

  /// Advance the cursor to the next non-empty bucket and sort its events
  /// into the drain buffer. New inserts for the drained tick fail the
  /// `tick >= cursor` window check and go to the heap, so the (when, seq)
  /// merge in pop_next() keeps global ordering exact.
  /// The wheel keeps a one-bit-per-slot occupancy bitmap so this is a
  /// ctz word scan, not a walk over empty bucket vectors — sharded runs
  /// leave each shard's wheel ~N× sparser than the legacy loop's, and the
  /// walk used to dominate per-event dispatch cost there.
  void refill_drain() {
    assert(wheel_count_ > 0);
    drain_.clear();
    drain_pos_ = 0;
    const std::size_t start =
        static_cast<std::size_t>(cursor_tick_) & (slots_ - 1);
    cursor_tick_ += static_cast<std::int64_t>(next_occupied_offset(start));
    const std::size_t slot =
        static_cast<std::size_t>(cursor_tick_) & (slots_ - 1);
    ++cursor_tick_;
    occupancy_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    drain_.swap(buckets_[slot]);
    wheel_count_ -= drain_.size();
    std::sort(drain_.begin(), drain_.end(), before);
  }

  /// Distance (in slots, circular) from `start` to the first occupied
  /// slot. Only called when wheel_count_ > 0, so a set bit exists; the
  /// wheel invariant (every live tick within [cursor, cursor + slots))
  /// makes slot order equal tick order, so the first set bit from the
  /// cursor is the next non-empty tick.
  [[nodiscard]] std::size_t next_occupied_offset(std::size_t start) const {
    std::size_t word = start >> 6;
    std::uint64_t bits =
        occupancy_[word] & (~std::uint64_t{0} << (start & 63));
    for (;;) {
      if (bits != 0) {
        const std::size_t slot =
            (word << 6) | static_cast<std::size_t>(std::countr_zero(bits));
        return (slot + slots_ - start) & (slots_ - 1);
      }
      word = word + 1 == occupancy_.size() ? 0 : word + 1;
      bits = occupancy_[word];
    }
  }

  void heap_push(Event ev) {
    std::size_t i = heap_.size();
    heap_.push_back(std::move(ev));
    Event tmp = std::move(heap_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!before(tmp, heap_[parent])) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(tmp);
  }

  Event heap_pop() {
    assert(!heap_.empty());
    Event top = std::move(heap_[0]);
    Event last = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) {
      std::size_t i = 0;
      const std::size_t n = heap_.size();
      for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t end = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < end; ++c) {
          if (before(heap_[c], heap_[best])) best = c;
        }
        if (!before(heap_[best], last)) break;
        heap_[i] = std::move(heap_[best]);
        i = best;
      }
      heap_[i] = std::move(last);
    }
    return top;
  }

  // Hot scalar block first: the per-event loop touches now_/pending_/
  // executed_/drain_pos_/wheel_count_ on every step, so they share the
  // object's first cache line (the class itself is 64-aligned).
  SimTime now_;
  std::size_t pending_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t drain_pos_ = 0;  // consumed prefix of drain_
  std::size_t wheel_count_ = 0;
  std::int64_t cursor_tick_ = 0;

  std::vector<Event> drain_;  // current tick, sorted by (when, seq)

  // 4-ary implicit heap: shallower than binary (better for the sift-down
  // on pop) and the 4 children share cache lines at 80-byte events.
  std::vector<Event> heap_;

  // Timer wheel state. Invariant: every bucket holds events of at most one
  // tick value, and that tick is in [cursor_tick_, cursor_tick_ + slots_);
  // occupancy_ bit s is set iff buckets_[s] is non-empty.
  std::int64_t granule_;
  std::size_t slots_;
  std::vector<std::vector<Event>> buckets_;
  std::vector<std::uint64_t> occupancy_;
};

}  // namespace neutrino::sim
