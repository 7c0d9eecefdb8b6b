// google-benchmark microbenchmarks over the simulation core: event
// schedule+dispatch throughput (the seed's std::function priority_queue
// vs the InlineTask 4-ary heap behind its timer wheel) and one message
// hop as the transports run it (an event that owns its Msg by value).
// Companion to bench/scale_throughput.cpp, which measures the same
// machinery end-to-end; this isolates the primitives.
//
// The ISSUE acceptance bar lives here: the new loop must sustain >= 3x
// the legacy schedule+dispatch throughput for callbacks that fit the
// 48-byte inline buffer (tests/sim_core_test.cpp separately proves the
// zero-heap-allocation property).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "core/msg.hpp"
#include "sim/event_loop.hpp"

namespace neutrino {
namespace {

/// The seed's event loop, verbatim in miniature: std::priority_queue of
/// std::function events (heap node per push, type-erasure allocation for
/// any capture beyond the ~16-byte std::function SBO).
class LegacyLoop {
 public:
  using Callback = std::function<void()>;

  void schedule_at(SimTime when, Callback cb) {
    queue_.push(Event{when, next_seq_++, std::move(cb)});
  }

  void run() {
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = ev.when;
      ev.callback();
    }
  }

  void run_until(SimTime horizon) {
    while (!queue_.empty() && queue_.top().when <= horizon) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = ev.when;
      ev.callback();
    }
    if (now_ < horizon) now_ = horizon;
  }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    Callback callback;
    bool operator>(const Event& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  SimTime now_;
  std::uint64_t next_seq_ = 0;
};

/// Representative small capture: service-pool completions capture
/// {this, id, generation} = 24 bytes and timers a few words; pad to 32.
struct Payload {
  std::uint64_t v[4];
};

constexpr int kBatch = 1024;

/// Storm regime: a million-UE run keeps tens of thousands of timers
/// pending (ack timeouts, log scans, idle releases) while near-future
/// delivery events churn. Model it as kPending far-future events parked
/// in the queue while each iteration schedules+dispatches a kBatch of
/// near-future events — the seed's binary heap pays O(log kPending)
/// 48-byte-element sifts plus a type-erasure allocation per event; the
/// wheel pays an O(1) bucket insert.
constexpr int kPending = 64 * 1024;
constexpr std::int64_t kSpreadNs = 3'500'000;  // within the wheel span

template <typename Loop>
void steady_state(benchmark::State& state, Loop& loop, std::uint64_t& sink) {
  const Payload p{{1, 2, 3, 4}};
  for (int i = 0; i < kPending; ++i) {  // parked timers, never dispatched
    loop.schedule_at(SimTime::seconds(36'000) + SimTime::nanoseconds(i),
                     [&sink, p] { sink += p.v[1]; });
  }
  std::int64_t base = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      const std::int64_t at = base + (static_cast<std::int64_t>(i) * 6151) %
                                         kSpreadNs;  // co-prime scatter
      loop.schedule_at(SimTime::nanoseconds(at), [&sink, p] {
        sink += p.v[0];
      });
    }
    base += kSpreadNs;
    loop.run_until(SimTime::nanoseconds(base));
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kBatch);
}

void BM_LegacySteadyState(benchmark::State& state) {
  LegacyLoop loop;
  std::uint64_t sink = 0;
  steady_state(state, loop, sink);
}

void BM_InlineSteadyState(benchmark::State& state) {
  sim::EventLoop loop;
  std::uint64_t sink = 0;
  steady_state(state, loop, sink);
}

void BM_LegacySchedulePop(benchmark::State& state) {
  std::uint64_t sink = 0;
  const Payload p{{1, 2, 3, 4}};
  for (auto _ : state) {
    LegacyLoop loop;
    for (int i = 0; i < kBatch; ++i) {
      // Reverse order: worst-case sift, and matches the new-loop variant.
      loop.schedule_at(SimTime::nanoseconds(kBatch - i),
                       [&sink, p] { sink += p.v[0]; });
    }
    loop.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kBatch);
}

void BM_InlineSchedulePop(benchmark::State& state) {
  std::uint64_t sink = 0;
  const Payload p{{1, 2, 3, 4}};
  for (auto _ : state) {
    sim::EventLoop loop;
    for (int i = 0; i < kBatch; ++i) {
      loop.schedule_at(SimTime::nanoseconds(kBatch - i),
                       [&sink, p] { sink += p.v[0]; });
    }
    loop.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kBatch);
}

/// One message hop: an event capturing {System*, dest, dest_id, Msg}
/// (104 bytes: past the inline buffer, one heap allocation) that moves
/// its Msg into the node's entry point, a batch of near-future hops per
/// iteration.
void BM_MsgHopByValue(benchmark::State& state) {
  sim::EventLoop loop;
  std::uint64_t sink = 0;
  std::int64_t at = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      core::Msg msg;
      msg.proc_seq = static_cast<std::uint64_t>(i);
      loop.schedule_at(SimTime::nanoseconds(++at),
                       [s = &sink, dest = 1u, m = std::move(msg)]() mutable {
                         const core::Msg arrived = std::move(m);
                         *s += arrived.proc_seq + dest;
                       });
    }
    loop.run_until(SimTime::nanoseconds(at));
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kBatch);
}

BENCHMARK(BM_LegacySchedulePop);
BENCHMARK(BM_InlineSchedulePop);
BENCHMARK(BM_LegacySteadyState);
BENCHMARK(BM_InlineSteadyState);
BENCHMARK(BM_MsgHopByValue);

}  // namespace
}  // namespace neutrino

BENCHMARK_MAIN();
