// sim/parallel: ShardedRuntime window scheduling, cross-shard delivery
// order and determinism, independent of the core model.
#include "sim/parallel/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

// Global byte counter for the construction footprint test. Lanes allocate
// concurrently, so the counter is atomic. The default operator new[] and
// its aligned form forward here, so array and over-aligned news count too.
namespace {
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

// GCC can't see that these new/delete pairs are internally consistent
// (malloc in, free out) and warns at inlined call sites.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace neutrino::sim::parallel {
namespace {

// A runtime preallocates nothing per shard pair: an outbox grows only
// with the traffic its pair carries. 16 shards with a 96-byte payload (the
// size of core::ShardEnvelope) allocate under 4 MiB, most of it the 16
// loops' timer wheels; 256 pairs of fixed 1024-entry buffers would take
// over 25 MiB.
TEST(ShardedRuntime, ConstructionAllocatesNoPerPairBuffers) {
  struct Payload96 {
    std::uint64_t words[12];
  };
  static_assert(sizeof(Payload96) == 96);
  using Runtime = ShardedRuntime<Payload96>;
  Runtime::Config config;
  config.shards = 16;
  config.lookahead = SimTime::milliseconds(1) - SimTime::nanoseconds(1);
  const std::uint64_t before = g_alloc_bytes.load();
  const Runtime rt(config);
  const std::uint64_t allocated = g_alloc_bytes.load() - before;
  EXPECT_LT(allocated, std::uint64_t{4} << 20) << allocated << " bytes";
  EXPECT_EQ(rt.shards(), 16u);
}

// ---------------------------------------------------------------------------
// ShardedRuntime: a ring of shards passing a hop counter around. The link
// latency is 1ms and the lookahead 1ms − 1ns, so every hop crosses a
// window boundary.
// ---------------------------------------------------------------------------

struct HopPayload {
  int hops_left = 0;
};

struct RingRun {
  // Per shard: (sim time ns, hops_left) for every hop executed.
  std::vector<std::vector<std::pair<std::int64_t, int>>> logs;
  std::uint64_t windows = 0;
  std::uint64_t cross_messages = 0;
  std::uint64_t events = 0;
};

RingRun run_ring(std::size_t shards, std::size_t threads, int hops) {
  using Runtime = ShardedRuntime<HopPayload>;
  Runtime::Config config;
  config.shards = shards;
  config.threads = threads;
  config.lookahead = SimTime::milliseconds(1) - SimTime::nanoseconds(1);
  Runtime rt(config);

  RingRun run;
  run.logs.resize(shards);
  const SimTime link = SimTime::milliseconds(1);

  // The hop body: log, then forward to the next shard in the ring.
  auto hop = [&](std::size_t shard, int hops_left, auto&& self) -> void {
    run.logs[shard].emplace_back(rt.loop(shard).now().ns(), hops_left);
    if (hops_left > 0) {
      rt.post(shard, (shard + 1) % shards, rt.loop(shard).now() + link,
              HopPayload{hops_left - 1});
    }
    (void)self;
  };

  // Every shard starts one token at a slightly different time.
  for (std::size_t s = 0; s < shards; ++s) {
    rt.loop(s).schedule_at(
        SimTime::microseconds(static_cast<std::int64_t>(10 * s)),
        [&, s] { hop(s, hops, hop); });
  }

  rt.run_until(SimTime::seconds(60), [&](std::size_t dst, SimTime arrival,
                                         HopPayload&& p) {
    const int hops_left = p.hops_left;
    rt.loop(dst).schedule_at(arrival, [&, dst, hops_left] {
      hop(dst, hops_left, hop);
    });
  });

  run.windows = rt.stats().windows;
  run.cross_messages = rt.stats().cross_messages;
  run.events = rt.events_executed();
  return run;
}

TEST(ShardedRuntime, RingCompletesAndCrosses) {
  const RingRun run = run_ring(/*shards=*/4, /*threads=*/2, /*hops=*/16);
  // 4 tokens × 17 hop executions (16 forwards each).
  EXPECT_EQ(run.events, 4u * 17u);
  EXPECT_EQ(run.cross_messages, 4u * 16u);
  EXPECT_GT(run.windows, 0u);
  for (const auto& log : run.logs) EXPECT_EQ(log.size(), 17u);
}

TEST(ShardedRuntime, BitIdenticalAcrossThreadCounts) {
  const RingRun one = run_ring(4, 1, 32);
  const RingRun two = run_ring(4, 2, 32);
  const RingRun four = run_ring(4, 4, 32);
  const RingRun eight = run_ring(4, 8, 32);  // clamped to 4 lanes
  EXPECT_EQ(one.logs, two.logs);
  EXPECT_EQ(one.logs, four.logs);
  EXPECT_EQ(one.logs, eight.logs);
  EXPECT_EQ(one.windows, two.windows);
  EXPECT_EQ(one.windows, four.windows);
  EXPECT_EQ(one.cross_messages, four.cross_messages);
  EXPECT_EQ(one.events, four.events);
}

TEST(ShardedRuntime, SingleShardRunsOneWindow) {
  // lookahead = max() (no cross traffic possible): the whole horizon is
  // one window — the legacy single-threaded loop with extra bookkeeping.
  using Runtime = ShardedRuntime<int>;
  Runtime::Config config;  // shards = threads = 1, lookahead = max
  Runtime rt(config);
  std::vector<int> order;
  rt.loop(0).schedule_at(SimTime::seconds(2), [&] { order.push_back(2); });
  rt.loop(0).schedule_at(SimTime::seconds(1), [&] { order.push_back(1); });
  rt.run_until(SimTime::seconds(10),
               [](std::size_t, SimTime, int&&) { FAIL(); });
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(rt.stats().windows, 1u);
  EXPECT_EQ(rt.stats().cross_messages, 0u);
  EXPECT_EQ(rt.loop(0).now(), SimTime::seconds(10));
}

TEST(ShardedRuntime, FastForwardSkipsIdleGaps) {
  // Two event clusters 10s apart with a 1ms lookahead: the window start
  // fast-forwards over the gap instead of stepping 10,000 empty windows.
  using Runtime = ShardedRuntime<int>;
  Runtime::Config config;
  config.shards = 2;
  config.lookahead = SimTime::milliseconds(1);
  Runtime rt(config);
  int ran = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    rt.loop(s).schedule_at(SimTime::nanoseconds(0), [&] { ++ran; });
    rt.loop(s).schedule_at(SimTime::seconds(10), [&] { ++ran; });
  }
  rt.run_until(SimTime::seconds(20),
               [](std::size_t, SimTime, int&&) { FAIL(); });
  EXPECT_EQ(ran, 4);
  EXPECT_EQ(rt.stats().windows, 2u);
}

TEST(ShardedRuntime, QuietShardSkipsDispatch) {
  // Shard 1 is empty for the whole run: every window is one 10ms-apart
  // cluster on shard 0 (the start fast-forwards between them), and the
  // empty shard never dispatches.
  using Runtime = ShardedRuntime<int>;
  Runtime::Config config;
  config.shards = 2;
  config.lookahead = SimTime::milliseconds(1) - SimTime::nanoseconds(1);
  Runtime rt(config);
  constexpr int kClusters = 50;
  std::vector<std::int64_t> fired;
  for (int i = 0; i < kClusters; ++i) {
    rt.loop(0).schedule_at(SimTime::milliseconds(10 * i), [&] {
      fired.push_back(rt.loop(0).now().ns());
    });
  }
  rt.run_until(SimTime::seconds(1),
               [](std::size_t, SimTime, int&&) { FAIL(); });
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kClusters));
  for (int i = 0; i < kClusters; ++i) {
    EXPECT_EQ(fired[i], SimTime::milliseconds(10 * i).ns());
  }
  EXPECT_EQ(rt.stats().windows, static_cast<std::uint64_t>(kClusters));
  EXPECT_GT(rt.stats().dispatches_skipped, 0u);
}

TEST(ShardedRuntime, ClampsToHorizon) {
  // The window end is clamped to the horizon: events beyond run_until()'s
  // horizon stay pending.
  using Runtime = ShardedRuntime<int>;
  Runtime::Config config;
  config.shards = 2;
  config.lookahead = SimTime::milliseconds(1) - SimTime::nanoseconds(1);
  Runtime rt(config);
  int ran = 0;
  rt.loop(0).schedule_at(SimTime::milliseconds(5), [&] { ++ran; });
  rt.loop(0).schedule_at(SimTime::milliseconds(500), [&] { ++ran; });
  rt.run_until(SimTime::milliseconds(100),
               [](std::size_t, SimTime, int&&) { FAIL(); });
  EXPECT_EQ(ran, 1);  // the 500ms event sits past the horizon
  EXPECT_EQ(rt.stats().windows, 1u);
  EXPECT_EQ(rt.loop(0).now(), SimTime::milliseconds(100));
}

TEST(ShardedRuntime, SaturatesNearMaxSimTime) {
  // A window starting within one lookahead of SimTime::max() must end at
  // the horizon instead of wrapping into the past.
  using Runtime = ShardedRuntime<int>;
  Runtime::Config config;
  config.shards = 2;
  config.lookahead = SimTime::milliseconds(1) - SimTime::nanoseconds(1);
  Runtime rt(config);
  const SimTime late = SimTime::max() - SimTime::nanoseconds(1);
  int ran = 0;
  rt.loop(0).schedule_at(late, [&] { ++ran; });
  rt.loop(1).schedule_at(late, [&] { ++ran; });
  rt.run_until(SimTime::max(), [](std::size_t, SimTime, int&&) { FAIL(); });
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(rt.stats().windows, 1u);
}

TEST(ShardedRuntime, BurstStaysOrdered) {
  // One event posts a burst of 100,000 messages to one destination;
  // delivery must preserve post order.
  using Runtime = ShardedRuntime<int>;
  Runtime::Config config;
  config.shards = 2;
  config.threads = 2;
  config.lookahead = SimTime::milliseconds(1) - SimTime::nanoseconds(1);
  Runtime rt(config);
  constexpr int kBurst = 100'000;
  rt.loop(0).schedule_at(SimTime::nanoseconds(0), [&] {
    for (int i = 0; i < kBurst; ++i) {
      rt.post(0, 1, rt.loop(0).now() + SimTime::milliseconds(1), int{i});
    }
  });
  std::vector<int> delivered;
  rt.run_until(SimTime::seconds(1),
               [&](std::size_t dst, SimTime arrival, int&& v) {
                 EXPECT_EQ(dst, 1u);
                 delivered.push_back(v);
                 rt.loop(dst).schedule_at(arrival, [] {});
               });
  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(kBurst));
  for (int i = 0; i < kBurst; ++i) EXPECT_EQ(delivered[i], i);
}

TEST(ShardedRuntime, DeliveryKeepsSourceThenFifoOrder) {
  // Two sources each post a burst into one destination. The destination's
  // lane delivers all of source 0's burst, then all of source 2's, each
  // in post order.
  using Runtime = ShardedRuntime<int>;
  Runtime::Config config;
  config.shards = 3;
  config.threads = 3;
  config.lookahead = SimTime::milliseconds(1) - SimTime::nanoseconds(1);
  Runtime rt(config);
  for (const std::size_t src : {std::size_t{2}, std::size_t{0}}) {
    rt.loop(src).schedule_at(SimTime::nanoseconds(0), [&rt, src] {
      for (int i = 0; i < 300; ++i) {
        rt.post(src, 1, rt.loop(src).now() + SimTime::milliseconds(1),
                static_cast<int>(src) * 1000 + i);
      }
    });
  }
  std::vector<int> delivered;
  rt.run_until(SimTime::seconds(1),
               [&](std::size_t dst, SimTime arrival, int&& v) {
                 EXPECT_EQ(dst, 1u);
                 delivered.push_back(v);
                 rt.loop(dst).schedule_at(arrival, [] {});
               });
  ASSERT_EQ(delivered.size(), 600u);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(delivered[i], i);
    EXPECT_EQ(delivered[300 + i], 2000 + i);
  }
}

// Window causality is checked in every build type, not only by assert():
// a message landing at or before its destination's window end aborts the
// run. At threads=2 shard 1 runs on a worker lane, off the calling thread.
TEST(ShardedRuntime, CausalityViolationAbortsInEveryBuild) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto violate = [](std::size_t threads, std::size_t from) {
    using Runtime = ShardedRuntime<int>;
    Runtime::Config config;
    config.shards = 2;
    config.threads = threads;
    config.lookahead = SimTime::milliseconds(1) - SimTime::nanoseconds(1);
    Runtime rt(config);
    const std::size_t to = 1 - from;
    rt.loop(from).schedule_at(SimTime::nanoseconds(0), [&rt, from, to] {
      // 500us link: below the 1ms lookahead, inside the window.
      rt.post(from, to, rt.loop(from).now() + SimTime::microseconds(500), 0);
    });
    rt.run_until(SimTime::seconds(1), [](std::size_t, SimTime, int&&) {});
  };
  EXPECT_DEATH(violate(1, 0),
               "window causality violated: shard 0 -> 1 arrival=500000ns "
               "<= window end=999999ns");
  EXPECT_DEATH(violate(2, 1),
               "window causality violated: shard 1 -> 0 arrival=500000ns "
               "<= window end=999999ns");
}

}  // namespace
}  // namespace neutrino::sim::parallel
