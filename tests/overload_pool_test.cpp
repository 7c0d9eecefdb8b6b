// Bounded-admission ServerPool semantics (DESIGN.md §13): capacity and
// per-class attach limits, drop accounting, peak-depth tracking, and the
// crash/retry interaction — a job lost to reset() and re-driven by the
// caller must deliver exactly once, with stale completions from the old
// incarnation fenced off by the generation counter.
#include <gtest/gtest.h>

#include <utility>

#include "common/clock.hpp"
#include "sim/event_loop.hpp"
#include "sim/server_pool.hpp"

namespace neutrino {
namespace {

using sim::EventLoop;
using sim::JobClass;
using sim::ServerPool;

const SimTime kService = SimTime::microseconds(10);

/// Offer a job the way the ingresses do (System::admit): submit it if
/// its class is admitted, otherwise count the drop. Returns whether the
/// job was accepted.
bool offer(ServerPool& pool, JobClass cls, EventLoop::Callback done) {
  if (!pool.admits(cls)) {
    pool.count_drop(cls);
    return false;
  }
  pool.submit(kService, std::move(done));
  return true;
}

TEST(OverloadPool, UnboundedByDefault) {
  EventLoop loop;
  ServerPool pool(loop, 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.admits(JobClass::kAttach));
    EXPECT_TRUE(offer(pool, JobClass::kAttach, [] {}));
  }
  EXPECT_EQ(pool.dropped_total(), 0u);
  EXPECT_EQ(pool.queue_depth(), 100u);
  loop.run();
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(OverloadPool, CapacityBoundsAdmissionPerClass) {
  EventLoop loop;
  ServerPool pool(loop, 1);
  pool.set_capacity(4, 2);  // attaches shed once 2 jobs are in flight
  int done = 0;
  auto submit = [&](JobClass cls) {
    return offer(pool, cls, [&] { ++done; });
  };
  ASSERT_TRUE(submit(JobClass::kAttach));
  ASSERT_TRUE(submit(JobClass::kAttach));
  // Attach headroom exhausted; outage-sensitive classes still admitted.
  EXPECT_FALSE(pool.admits(JobClass::kAttach));
  EXPECT_FALSE(submit(JobClass::kAttach));
  EXPECT_TRUE(submit(JobClass::kHandover));
  EXPECT_TRUE(submit(JobClass::kService));
  // Now at full capacity: everything is refused.
  EXPECT_FALSE(submit(JobClass::kHandover));
  EXPECT_FALSE(submit(JobClass::kControl));
  EXPECT_EQ(pool.drops(JobClass::kAttach), 1u);
  EXPECT_EQ(pool.drops(JobClass::kHandover), 1u);
  EXPECT_EQ(pool.drops(JobClass::kControl), 1u);
  EXPECT_EQ(pool.dropped_total(), 3u);
  EXPECT_EQ(pool.peak_depth(), 4u);
  loop.run();
  EXPECT_EQ(done, 4);
  // Draining frees headroom for every class again.
  EXPECT_TRUE(pool.admits(JobClass::kAttach));
}

TEST(OverloadPool, AttachLimitClampedToCapacity) {
  EventLoop loop;
  ServerPool pool(loop, 1);
  pool.set_capacity(2, 10);  // limit above capacity is meaningless
  EXPECT_TRUE(offer(pool, JobClass::kAttach, [] {}));
  EXPECT_TRUE(offer(pool, JobClass::kAttach, [] {}));
  EXPECT_FALSE(offer(pool, JobClass::kAttach, [] {}));
  loop.run();
}

TEST(OverloadPool, RetryAfterCrashDeliversExactlyOnce) {
  // Regression for the reset()/retry interaction documented in submit():
  // a completion scheduled before the crash must not fire, and the
  // caller's re-driven copy of the job must fire exactly once even though
  // the stale completion event is still sitting in the event loop.
  EventLoop loop;
  ServerPool pool(loop, 1);
  int delivered = 0;
  pool.submit(kService, [&] { ++delivered; });
  loop.run_until(SimTime::microseconds(2));  // crash mid-service
  pool.reset();
  // Re-drive the lost job (what the NAS retransmission path does). The
  // stale pre-crash completion event still fires first in the loop, and
  // the generation fence must turn it into a no-op.
  pool.submit(kService, [&] { ++delivered; });
  loop.run();
  EXPECT_EQ(delivered, 1);
}

TEST(OverloadPool, StatsSurviveCrashButWorkDies) {
  EventLoop loop;
  ServerPool pool(loop, 1);
  pool.set_capacity(2, 1);
  int done = 0;
  ASSERT_TRUE(offer(pool, JobClass::kAttach, [&] { ++done; }));
  ASSERT_TRUE(offer(pool, JobClass::kControl, [&] { ++done; }));
  ASSERT_FALSE(offer(pool, JobClass::kAttach, [&] { ++done; }));
  EXPECT_EQ(pool.peak_depth(), 2u);
  pool.reset();
  // Queued work died with the crash...
  loop.run();
  EXPECT_EQ(done, 0);
  EXPECT_EQ(pool.queue_depth(), 0u);
  // ...but the capacity config and drop/peak statistics did not.
  EXPECT_EQ(pool.capacity(), 2u);
  EXPECT_EQ(pool.drops(JobClass::kAttach), 1u);
  EXPECT_EQ(pool.peak_depth(), 2u);
  // The new incarnation admits work under the same bounds.
  EXPECT_TRUE(offer(pool, JobClass::kAttach, [&] { ++done; }));
  loop.run();
  EXPECT_EQ(done, 1);
}

}  // namespace
}  // namespace neutrino
