// Simulation-core primitives: InlineTask small-buffer behaviour and the
// event loop's allocation profile on the hot path.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "sim/event_loop.hpp"

// Global allocation counter for the zero-allocation guarantees. The
// default operator new[] forwards here, so array news are counted too.
namespace {
std::uint64_t g_alloc_count = 0;
}  // namespace

// GCC can't see that this new/delete pair is internally consistent
// (malloc in, free out) and warns at inlined call sites.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace neutrino {
namespace {

// --- InlineTask -------------------------------------------------------------

TEST(InlineTask, SmallCapturesStoreInline) {
  int hits = 0;
  std::uint64_t pad[4] = {1, 2, 3, 4};  // 8 + 32 = 40 bytes, under the 48 cap
  sim::InlineTask t([&hits, pad] { hits += static_cast<int>(pad[0]); });
  EXPECT_TRUE(t.stores_inline());
  EXPECT_TRUE(static_cast<bool>(t));
  t();
  EXPECT_EQ(hits, 1);
}

TEST(InlineTask, OversizedCapturesFallBackToHeap) {
  int hits = 0;
  std::uint64_t pad[8] = {};  // 64-byte capture: over the inline cap
  sim::InlineTask t([&hits, pad] { hits += 1 + static_cast<int>(pad[0]); });
  EXPECT_FALSE(t.stores_inline());
  t();
  EXPECT_EQ(hits, 1);
}

TEST(InlineTask, MoveTransfersOwnershipAndDestroysCapture) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> alive = token;
  {
    sim::InlineTask a([token] { (void)*token; });
    token.reset();
    EXPECT_FALSE(alive.expired());  // capture holds the last reference
    sim::InlineTask b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(static_cast<bool>(b));
    EXPECT_FALSE(alive.expired());
    sim::InlineTask c;
    c = std::move(b);
    c();
    EXPECT_FALSE(alive.expired());
  }
  EXPECT_TRUE(alive.expired());  // destructor ran exactly once
}

TEST(InlineTask, SizeBudget) {
  static_assert(sizeof(sim::InlineTask) <= 64);
  static_assert(sim::InlineTask::kInlineCapacity == 48);
}

// --- EventLoop allocation profile -------------------------------------------

/// 2 slots of 1ns: every event scheduled more than 2ns past the cursor
/// takes the heap path, whose storage is a single vector.
sim::EventLoop::Config heap_path() {
  sim::EventLoop::Config cfg;
  cfg.wheel_granularity_ns = 1;
  cfg.wheel_slots = 2;
  return cfg;
}

// The ISSUE acceptance bar: zero heap allocations per event for callbacks
// within the 48-byte inline capacity, once the loop's own vectors have
// warmed up. The heap path makes the steady state exact (the wheel's
// per-bucket vectors warm per bucket index, which depends on the time
// pattern; the 4-ary heap's storage is a single vector).
TEST(EventLoopAlloc, SteadyStateScheduleDispatchIsAllocationFree) {
  sim::EventLoop loop(heap_path());
  std::uint64_t sink = 0;
  std::uint64_t pad[3] = {1, 2, 3};  // 32-byte capture, inline

  constexpr int kBatch = 512;
  const auto round = [&](std::int64_t base) {
    for (int i = 0; i < kBatch; ++i) {
      loop.schedule_at(SimTime::nanoseconds(base + kBatch - i),
                       [&sink, pad] { sink += pad[0]; });
    }
    loop.run();
  };

  round(1'000'000);  // warm-up: grows the heap vector to kBatch capacity
  const std::uint64_t before = g_alloc_count;
  round(2'000'000);
  EXPECT_EQ(g_alloc_count, before);
  EXPECT_EQ(sink, 2u * kBatch);
  EXPECT_EQ(loop.executed(), 2u * kBatch);
}

/// Counts its events; times far past the cursor, so each takes the heap.
struct CountingStream {
  std::uint64_t n;
  std::uint64_t* fired;
  [[nodiscard]] std::uint64_t size() const { return n; }
  [[nodiscard]] SimTime when(std::uint64_t k) const {
    return SimTime::nanoseconds(1'000'000 + 10 * static_cast<std::int64_t>(k));
  }
  [[nodiscard]] std::uint64_t offset(std::uint64_t k) const { return k; }
  void fire(std::uint64_t) { ++*fired; }
};

// A stream allocates once, at registration; releasing each next event
// moves the 16-byte step through InlineTask's buffer, allocation-free.
TEST(EventLoopAlloc, StreamReleasesEventsWithoutAllocating) {
  sim::EventLoop loop(heap_path());
  std::uint64_t fired = 0;
  loop.schedule_stream(CountingStream{4096, &fired});
  EXPECT_EQ(loop.pending(), 1u);
  const std::uint64_t before = g_alloc_count;
  loop.run();
  EXPECT_EQ(g_alloc_count, before);
  EXPECT_EQ(fired, 4096u);
  EXPECT_EQ(loop.executed(), 4096u);
}

// --- EventLoop semantics ----------------------------------------------------

TEST(EventLoopCore, EqualTimesDispatchInScheduleOrder) {
  for (const sim::EventLoop::Config& cfg :
       {heap_path(), sim::EventLoop::Config{}}) {
    sim::EventLoop loop(cfg);
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) {
      loop.schedule_at(SimTime::microseconds(5), [&order, i] {
        order.push_back(i);
      });
    }
    loop.run();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventLoopCore, RunUntilStopsAtHorizonAndAdvancesNow) {
  sim::EventLoop loop;
  int ran = 0;
  loop.schedule_at(SimTime::milliseconds(1), [&ran] { ++ran; });
  loop.schedule_at(SimTime::milliseconds(2), [&ran] { ++ran; });  // boundary
  loop.schedule_at(SimTime::milliseconds(3), [&ran] { ++ran; });  // beyond
  loop.run_until(SimTime::milliseconds(2));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(loop.now().ns(), SimTime::milliseconds(2).ns());
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(ran, 3);
}

TEST(EventLoopCore, CallbacksCanScheduleIntoPastTicksOfTheWheel) {
  // An event that schedules another event at its own timestamp: the tick
  // was already drained, so the insert must route to the heap and still
  // run before anything later.
  sim::EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(SimTime::microseconds(10), [&] {
    order.push_back(0);
    loop.schedule_at(SimTime::microseconds(10), [&] { order.push_back(1); });
  });
  loop.schedule_at(SimTime::microseconds(500), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventLoopCore, FarFutureEventsBeyondWheelSpanStillOrder) {
  sim::EventLoop::Config cfg;
  cfg.wheel_granularity_ns = 1'000;
  cfg.wheel_slots = 4;  // 4 us span: almost everything overflows to heap
  sim::EventLoop loop(cfg);
  std::vector<int> order;
  loop.schedule_at(SimTime::milliseconds(10), [&] { order.push_back(2); });
  loop.schedule_at(SimTime::microseconds(2), [&] { order.push_back(0); });
  loop.schedule_at(SimTime::microseconds(100), [&] { order.push_back(1); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace neutrino
