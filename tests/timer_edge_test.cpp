// Event-loop timer edge cases that the overload path leans on: NAS
// retransmission timers are plain schedule_after events whose "cancel" is
// an epoch guard in the callback, backoff pushes later attempts past the
// timer-wheel horizon into the heap, and a timer scheduled at `now` (zero
// backoff on a hot retry) must still fire inside the current run_until
// window. Each property is pinned here at the loop level so a wheel or
// heap regression shows up as a one-liner instead of a chaos-campaign
// divergence.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/clock.hpp"
#include "sim/event_loop.hpp"
#include "sim/server_pool.hpp"

namespace neutrino {
namespace {

using sim::EventLoop;

EventLoop::Config tiny_wheel() {
  // 4 slots x 100ns: horizon 400ns, so "far future" is cheap to reach.
  EventLoop::Config cfg;
  cfg.wheel_granularity_ns = 100;
  cfg.wheel_slots = 4;
  return cfg;
}

TEST(TimerEdge, TimerScheduledAtNowFiresInCurrentWindow) {
  EventLoop loop(tiny_wheel());
  loop.run_until(SimTime::nanoseconds(250));  // advance cursor mid-tick
  bool fired = false;
  loop.schedule_at(loop.now(), [&] { fired = true; });
  loop.run_until(loop.now());  // horizon == now; events at horizon run
  EXPECT_TRUE(fired);
  EXPECT_EQ(loop.now(), SimTime::nanoseconds(250));
}

TEST(TimerEdge, ZeroDelayRetriesPreserveFifoOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_after(SimTime::nanoseconds(0), [&] {
    order.push_back(0);
    // A zero-backoff rearm from inside a callback lands at the same
    // timestamp; seq tie-break must run it after already-pending peers.
    loop.schedule_after(SimTime::nanoseconds(0), [&] { order.push_back(2); });
  });
  loop.schedule_after(SimTime::nanoseconds(0), [&] { order.push_back(1); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(TimerEdge, FarFutureTimersCrossWheelHorizon) {
  // Interleave wheel-window and beyond-horizon schedules; firing order
  // must be exactly (when, seq) regardless of which structure each event
  // landed in. A 2-slot, 1ns wheel (nearly every event on the heap) is
  // the oracle.
  const std::vector<std::int64_t> whens = {
      50, 4450, 150, 399, 400, 401, 12'000, 350, 4450, 50,
  };
  auto run = [&](const EventLoop::Config& cfg) {
    EventLoop loop(cfg);
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < whens.size(); ++i) {
      loop.schedule_at(SimTime::nanoseconds(whens[i]),
                       [&order, i] { order.push_back(i); });
    }
    loop.run();
    return order;
  };
  EventLoop::Config no_wheel;
  no_wheel.wheel_granularity_ns = 1;
  no_wheel.wheel_slots = 2;
  const auto wheeled = run(tiny_wheel());
  const auto heap_only = run(no_wheel);
  EXPECT_EQ(wheeled, heap_only);
  EXPECT_EQ(wheeled,
            (std::vector<std::size_t>{0, 9, 2, 7, 3, 4, 5, 1, 8, 6}));
}

TEST(TimerEdge, ExponentialBackoffWalksOutOfTheWheel) {
  // The retransmission pattern: each rearm doubles the delay, so attempts
  // start inside the wheel window and later ones go to the heap. All must
  // fire, each at the exact doubled timestamp.
  EventLoop loop(tiny_wheel());
  std::vector<std::int64_t> fired_at;
  const SimTime base = SimTime::nanoseconds(60);
  std::function<void(int)> rearm = [&](int attempt) {
    loop.schedule_after(base * (std::int64_t{1} << attempt), [&, attempt] {
      fired_at.push_back(loop.now().ns());
      if (attempt < 7) rearm(attempt + 1);
    });
  };
  rearm(0);
  loop.run();
  ASSERT_EQ(fired_at.size(), 8u);
  std::int64_t expect = 0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    expect += base.ns() << attempt;
    EXPECT_EQ(fired_at[static_cast<std::size_t>(attempt)], expect)
        << "attempt " << attempt;
  }
}

TEST(TimerEdge, EpochGuardCancelAfterFireIsInert) {
  // The loop has no cancellation API by design: callers fence callbacks
  // with an epoch. Bumping the epoch *after* the timer fired must neither
  // re-fire it nor disturb a newly armed timer under the new epoch.
  EventLoop loop;
  std::uint64_t epoch = 0;
  int fires = 0;
  auto arm = [&](SimTime delay) {
    const std::uint64_t my_epoch = epoch;
    loop.schedule_after(delay, [&, my_epoch] {
      if (my_epoch != epoch) return;  // canceled
      ++fires;
    });
  };
  arm(SimTime::nanoseconds(10));
  loop.run_until(SimTime::nanoseconds(20));
  EXPECT_EQ(fires, 1);
  ++epoch;  // cancel-after-fire: nothing pending, must be a no-op
  arm(SimTime::nanoseconds(10));
  loop.run();
  EXPECT_EQ(fires, 2);
}

TEST(TimerEdge, EpochGuardCancelBeforeFireSuppresses) {
  EventLoop loop;
  std::uint64_t epoch = 0;
  int fires = 0;
  const std::uint64_t armed_epoch = epoch;
  loop.schedule_after(SimTime::nanoseconds(10), [&, armed_epoch] {
    if (armed_epoch != epoch) return;
    ++fires;
  });
  ++epoch;  // cancel while still pending
  loop.run();
  EXPECT_EQ(fires, 0);
  EXPECT_TRUE(loop.empty());
}

TEST(TimerEdge, RunUntilHorizonIsInclusiveAcrossWheelBoundary) {
  // An event exactly at the horizon runs even when the horizon coincides
  // with a wheel-tick boundary (400ns = slots * granularity here).
  EventLoop loop(tiny_wheel());
  bool at_horizon = false;
  bool beyond = false;
  loop.schedule_at(SimTime::nanoseconds(400), [&] { at_horizon = true; });
  loop.schedule_at(SimTime::nanoseconds(401), [&] { beyond = true; });
  loop.run_until(SimTime::nanoseconds(400));
  EXPECT_TRUE(at_horizon);
  EXPECT_FALSE(beyond);
  EXPECT_EQ(loop.pending(), 1u);
}

}  // namespace
}  // namespace neutrino
