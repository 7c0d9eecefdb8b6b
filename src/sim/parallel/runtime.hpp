// Sharded discrete-event runtime: conservative time windows over N shards.
//
// Each shard owns a full EventLoop (and, at the core layer, its slice of
// the topology and per-shard metrics). Shards advance in lock-step
// windows
//
//     [W, W + lookahead]   where W = min over shards of next_time()
//
// with `lookahead` strictly smaller than the minimum latency of any
// cross-shard link. An event executing at time t during the window sends
// across shards with arrival = t + link; t ≥ W and link > lookahead give
// arrival > W + lookahead, i.e. strictly after the window end (checked in
// post() in every build). No shard can receive a message for a time it has
// already executed past, so intra-window execution needs no
// synchronization at all: plain single-threaded EventLoop runs, plain
// vector appends for cross-shard sends, and two barriers per window. Every
// shard runs to the same window end; a shard with nothing due before it
// skips the window (Stats::dispatches_skipped), and W fast-forwards over
// idle gaps. The window is static on purpose (DESIGN.md §16): wider
// per-shard horizons reorder same-nanosecond ties between shard counts.
//
// Thread model (owner computes): run_until() runs L = min(threads, shards)
// lanes. The calling thread is lane 0 and spawns the other L − 1, so
// threads=1 spawns nothing and never touches a barrier. Shard i belongs to
// lane i mod L for the whole run, so its loop, nodes and inbound outboxes
// stay in one core's cache. Per window each lane runs its shards to the
// window end, waits at the done barrier, drains its own shards' inbound
// outboxes (each destination in ascending source order, FIFO within an
// outbox) and records their next event times; the last lane to reach the
// start barrier then plans the next window from those times — an
// O(shards) scan, the only serial step.
//
// Cross-shard messages travel through one plain vector per ordered shard
// pair (src → dst). Producer and consumer never overlap: only src's lane
// appends, during a window; only dst's lane drains, between the done and
// start barriers. The barriers' happens-before edges publish the appends
// to the drainer and the drain to the next window's appends, so the
// barrier is the runtime's only synchronization. A drained outbox keeps
// its capacity, so it follows the busiest window its pair has carried,
// and a pair that never talks costs one empty vector.
//
// Determinism (the hard requirement, see DESIGN.md §11): for a fixed
// shard count the results are bit-identical across runs *and across
// worker-thread counts* because (a) each shard's intra-window execution
// is sequential on one lane with the same (when, seq) order whichever
// lane owns it, (b) each destination loop receives its cross-shard
// messages only between windows, in fixed (src shard, FIFO) order — the
// order one thread draining every outbox in (dst, src, FIFO) order would
// give it — so it assigns them the same seq numbers however lanes
// interleave. No shard draws a random number: a run's randomness is fixed
// in its trace before the run starts. Window plans and Stats read only sim
// state, never thread identity.
// With one shard there are no windows to split on (lookahead = ∞ ⇒ one
// window to the horizon), so the run is one plain EventLoop run.
#pragma once

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "obs/profiler.hpp"
#include "sim/event_loop.hpp"
#include "sim/parallel/barrier.hpp"

namespace neutrino::sim::parallel {

/// One conservative window (sim-time bounds, cross-shard traffic, and
/// per-shard events executed). Deterministic — derived purely from sim
/// state — so it is safe to export (the Perfetto shard tracks in
/// obs/trace_export.hpp) and to compare across thread counts. Collected
/// only after ShardedRuntime::enable_window_log().
struct WindowRecord {
  SimTime start;
  SimTime end;
  std::uint64_t cross_messages = 0;     ///< drained at this boundary
  std::vector<std::uint64_t> executed;  ///< per-shard events this window
};

template <class Payload>
class ShardedRuntime {
 public:
  struct Config {
    std::size_t shards = 1;
    std::size_t threads = 1;
    /// Maximum window length. Must be strictly less than the minimum
    /// cross-shard link latency (callers pass min_link − 1ns). max()
    /// means "no cross-shard traffic allowed": one window to the horizon.
    SimTime lookahead = SimTime::max();
    EventLoop::Config loop;
  };

  struct Stats {
    std::uint64_t windows = 0;          ///< barrier-bounded windows executed
    std::uint64_t cross_messages = 0;   ///< envelopes drained at barriers
    /// Shard-windows skipped entirely (no event before the window end).
    std::uint64_t dispatches_skipped = 0;
  };

  explicit ShardedRuntime(const Config& config)
      : n_(config.shards),
        lanes_(std::clamp<std::size_t>(config.threads, 1, n_)),
        lookahead_(config.lookahead),
        start_(lanes_),
        done_(lanes_) {
    assert(n_ >= 1);
    assert(lookahead_.ns() > 0);
    next_times_.assign(n_, SimTime{});
    drained_.assign(n_, 0);
    loops_.reserve(n_);
    for (std::size_t i = 0; i < n_; ++i) loops_.emplace_back(config.loop);
    outboxes_.resize(n_ * n_);
  }

  [[nodiscard]] std::size_t shards() const { return n_; }
  EventLoop& loop(std::size_t shard) { return loops_[shard]; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Attach a wall-clock phase profiler (null detaches). Lanes: dispatch
  /// is attributed per shard; barrier waits, outbox drains and window
  /// planning per thread lane (the calling thread = 0). The profiler must
  /// have ≥ max(shards, threads) lanes and outlive run_until(). Wall-clock
  /// only — never feeds any deterministic output (DESIGN.md §15).
  void set_profiler(obs::PhaseProfiler* profiler) { profiler_ = profiler; }

  /// Start recording per-window activity (bounded: recording stops after
  /// `max_windows`).
  void enable_window_log(std::size_t max_windows = 2048) {
    window_log_max_ = max_windows;
    window_log_.clear();
    window_log_.reserve(max_windows < 256 ? max_windows : 256);
    prev_executed_.assign(n_, 0);
    for (std::size_t i = 0; i < n_; ++i) prev_executed_[i] = loops_[i].executed();
  }
  [[nodiscard]] const std::vector<WindowRecord>& window_log() const {
    return window_log_;
  }

  /// Total events dispatched across all shard loops.
  [[nodiscard]] std::uint64_t events_executed() const {
    std::uint64_t total = 0;
    for (const EventLoop& l : loops_) total += l.executed();
    return total;
  }

  /// Producer-side cross-shard send; called from shard `from`'s events
  /// during a window. `arrival` must land strictly after the window end
  /// (guaranteed when the link latency exceeds the lookahead); a violation
  /// aborts the run in every build type.
  void post(std::size_t from, std::size_t to, SimTime arrival,
            Payload payload) {
    assert(from < n_ && to < n_ && from != to);
    if (arrival <= window_end_) [[unlikely]] {
      causality_violation(from, to, arrival, window_end_);
    }
    outboxes_[from * n_ + to].entries.push_back(
        Entry{arrival, std::move(payload)});
  }

  /// Run all shards to `horizon` (events at exactly `horizon` still run).
  /// `deliver(dst_shard, arrival, Payload&&)` is invoked between windows
  /// for every cross-shard message, on the lane that owns `dst_shard` and
  /// concurrently with other destinations' deliveries: it must schedule
  /// the payload onto loop(dst_shard) at `arrival` and touch no other
  /// shard's state. Each destination sees its messages in (src, FIFO)
  /// order.
  template <class Deliver>
  void run_until(SimTime horizon, Deliver&& deliver) {
    horizon_ = horizon;
    {
      auto plan = obs::PhaseProfiler::scoped(profiler_, 0,
                                             obs::Phase::kSchedule);
      for (std::size_t i = 0; i < n_; ++i) {
        next_times_[i] = loops_[i].next_time();
      }
      plan_window(/*after_window=*/false);
    }
    if (!finished_) {
      std::vector<std::thread> workers;
      workers.reserve(lanes_ - 1);
      for (std::size_t lane = 1; lane < lanes_; ++lane) {
        workers.emplace_back(
            [this, lane, &deliver] { lane_loop(lane, deliver); });
      }
      lane_loop(0, deliver);
      for (std::thread& w : workers) w.join();
    }
    window_end_ = kNoWindow;
    finished_ = false;
    // Clock parity with a plain run_until on a single loop: every shard's
    // now() advances to the horizon (events beyond it stay pending).
    for (EventLoop& l : loops_) l.run_until(horizon);
  }

 private:
  struct Entry {
    SimTime arrival;
    Payload payload;
  };
  // One cache line each, so lanes draining neighbouring destinations
  // never write the same line.
  struct alignas(64) Outbox {
    std::vector<Entry> entries;
  };

  /// The window end outside run_until(): posts there are unchecked.
  static constexpr SimTime kNoWindow{
      std::numeric_limits<std::int64_t>::min()};

  [[gnu::cold, gnu::noinline]] [[noreturn]] static void causality_violation(
      std::size_t from, std::size_t to, SimTime arrival, SimTime end) {
    std::fprintf(stderr,
                 "ShardedRuntime: window causality violated: shard %zu -> "
                 "%zu arrival=%" PRId64 "ns <= window end=%" PRId64 "ns\n",
                 from, to, arrival.ns(), end.ns());
    std::abort();
  }

  [[nodiscard]] SimTime window_end_for(SimTime start) const {
    if (lookahead_ == SimTime::max()) return horizon_;
    if (start.ns() > SimTime::max().ns() - lookahead_.ns()) return horizon_;
    return std::min(start + lookahead_, horizon_);
  }

  /// One lane's share of the run: its own shards, every window, until the
  /// planner ends the run.
  template <class Deliver>
  void lane_loop(std::size_t lane, Deliver& deliver) {
    while (!finished_) {
      for (std::size_t i = lane; i < n_; i += lanes_) {
        // Idle skip: nothing to run before the window end (counted by the
        // planner, so the dispatch loop stays write-free).
        if (next_times_[i] > window_end_) continue;
        auto dispatch = obs::PhaseProfiler::scoped(profiler_, i,
                                                   obs::Phase::kDispatch);
        loops_[i].run_until(window_end_);
      }
      if (lanes_ > 1) {
        auto wait = obs::PhaseProfiler::scoped(profiler_, lane,
                                               obs::Phase::kBarrierWait);
        done_.arrive_and_wait();
      }
      {
        auto drain = obs::PhaseProfiler::scoped(profiler_, lane,
                                                obs::Phase::kChannelDrain);
        for (std::size_t dst = lane; dst < n_; dst += lanes_) {
          std::uint64_t drained = 0;
          for (std::size_t src = 0; src < n_; ++src) {
            if (src == dst) continue;
            std::vector<Entry>& box = outboxes_[src * n_ + dst].entries;
            for (Entry& e : box) {
              deliver(dst, e.arrival, std::move(e.payload));
            }
            drained += box.size();
            box.clear();  // keeps the capacity for the next window
          }
          drained_[dst] = drained;
          next_times_[dst] = loops_[dst].next_time();
        }
      }
      if (lanes_ > 1) {
        // The last lane to arrive plans the next window; its barrier time
        // is planning, everyone else's is waiting.
        auto wait = obs::PhaseProfiler::scoped(profiler_, lane,
                                               obs::Phase::kBarrierWait);
        if (start_.arrive_and_wait([this] { plan_window(true); })) {
          wait.set_phase(obs::Phase::kSchedule);
        }
      } else {
        auto plan = obs::PhaseProfiler::scoped(profiler_, lane,
                                               obs::Phase::kSchedule);
        plan_window(true);
      }
    }
  }

  /// Serial step between windows (one thread, every lane parked or absent):
  /// account the window just drained, if any, then size the next one from
  /// next_times_, or end the run.
  void plan_window(bool after_window) {
    std::uint64_t crossed = 0;
    for (std::uint64_t& d : drained_) crossed += std::exchange(d, 0);
    stats_.cross_messages += crossed;
    if (after_window) log_window(crossed);
    SimTime window_start = SimTime::max();
    for (std::size_t i = 0; i < n_; ++i) {
      window_start = std::min(window_start, next_times_[i]);
    }
    if (window_start == SimTime::max() || window_start > horizon_) {
      finished_ = true;
      return;
    }
    window_start_ = window_start;
    window_end_ = window_end_for(window_start);
    for (const SimTime next : next_times_) {
      if (next > window_end_) ++stats_.dispatches_skipped;
    }
    ++stats_.windows;
  }

  void log_window(std::uint64_t crossed) {
    if (window_log_max_ == 0 || window_log_.size() >= window_log_max_) return;
    WindowRecord rec;
    rec.start = window_start_;
    rec.end = window_end_;
    rec.cross_messages = crossed;
    rec.executed.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      const std::uint64_t now_exec = loops_[i].executed();
      rec.executed[i] = now_exec - prev_executed_[i];
      prev_executed_[i] = now_exec;
    }
    window_log_.push_back(std::move(rec));
  }

  const std::size_t n_;
  const std::size_t lanes_;  // min(threads, shards); shard i → lane i % lanes_
  const SimTime lookahead_;
  std::vector<EventLoop> loops_;
  std::vector<Outbox> outboxes_;  // [src * n_ + dst]; the diagonal stays empty

  PhaseBarrier start_;
  PhaseBarrier done_;
  // Per shard, written by the owning lane after its drain and read by the
  // planner; the start barrier publishes both.
  std::vector<SimTime> next_times_;     // next pending event
  std::vector<std::uint64_t> drained_;  // messages delivered this boundary
  // Written only by the planner; the start barrier publishes them to lanes.
  SimTime window_start_;
  SimTime window_end_ = kNoWindow;  // inclusive run horizon of every shard
  SimTime horizon_;
  bool finished_ = false;  // the planner found nothing left to run

  Stats stats_;

  // Observability (planner-only state; lanes touch only profiler_, whose
  // cells are atomic).
  obs::PhaseProfiler* profiler_ = nullptr;
  std::size_t window_log_max_ = 0;
  std::vector<WindowRecord> window_log_;
  std::vector<std::uint64_t> prev_executed_;
};

}  // namespace neutrino::sim::parallel
