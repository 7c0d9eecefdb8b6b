// Owner-drain stress for the sharded runtime (sim/parallel/runtime.hpp):
// lanes own uneven shard sets — 5 shards on 2 threads ({0,2,4} | {1,3}),
// on 3 threads ({0,3} | {1,4} | {2}) and on 8 threads clamped to 5 lanes —
// while every shard posts to every other, so each boundary drains
// several outboxes on every lane at once. Every outcome, Stats and the
// window log must match one thread owning all five shards. Built for the
// ThreadSanitizer pass as well as the plain suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "sim/parallel/runtime.hpp"

namespace neutrino::sim::parallel {
namespace {

constexpr std::size_t kShards = 5;
constexpr std::uint64_t kTokens = 4;  // relay tokens per shard
constexpr int kHops = 40;             // forwards per token
constexpr int kLeaves = 3;            // per peer per relay

struct Msg {
  std::uint32_t src = 0;
  std::uint32_t seq = 0;  // per-source send counter
  int hops_left = -1;     // −1: leaf (logged only); ≥ 0: relay token
};

struct StressRun {
  // Per shard, in execution order: (sim ns, src, seq, hops, rng draw).
  std::vector<std::vector<std::tuple<std::int64_t, std::uint32_t,
                                     std::uint32_t, int, std::uint64_t>>>
      log{kShards};
  // Per window: (start ns, end ns, messages drained, events per shard).
  std::vector<std::tuple<std::int64_t, std::int64_t, std::uint64_t,
                         std::vector<std::uint64_t>>>
      windows_log;
  std::uint64_t windows = 0, cross = 0, events = 0, skipped = 0;
  bool operator==(const StressRun&) const = default;
};

StressRun run_stress(std::size_t threads) {
  using Runtime = ShardedRuntime<Msg>;
  // Uneven links: src→dst takes 1ms + (5·src + dst)·10µs.
  const auto link = [](std::size_t src, std::size_t dst) {
    const auto pair = static_cast<std::int64_t>(kShards * src + dst);
    return SimTime::milliseconds(1) + SimTime::microseconds(10 * pair);
  };
  Runtime::Config config;
  config.shards = kShards;
  config.threads = threads;
  config.lookahead = SimTime::milliseconds(1) - SimTime::nanoseconds(1);
  Runtime rt(config);
  rt.enable_window_log(/*max_windows=*/1u << 20);
  StressRun run;
  // Each touched only by its shard's owning lane.
  std::vector<std::uint32_t> sent(kShards, 0);
  std::vector<Rng> rngs;
  for (std::uint64_t s = 0; s < kShards; ++s) rngs.emplace_back(42 + s);

  // A relay sends kLeaves leaves to every other shard, then forwards
  // itself to one its shard's Rng picks.
  auto on_event = [&](std::size_t shard, const Msg& m) {
    const std::uint64_t draw = rngs[shard].next_u64();
    const SimTime now = rt.loop(shard).now();
    run.log[shard].emplace_back(now.ns(), m.src, m.seq, m.hops_left, draw);
    if (m.hops_left <= 0) return;
    const auto src = static_cast<std::uint32_t>(shard);
    for (std::size_t d = 0; d < kShards; ++d) {
      for (int k = 0; d != shard && k < kLeaves; ++k) {
        rt.post(shard, d, now + link(shard, d), Msg{src, sent[shard]++});
      }
    }
    const std::size_t next = (shard + 1 + draw % (kShards - 1)) % kShards;
    rt.post(shard, next, now + link(shard, next),
            Msg{src, sent[shard]++, m.hops_left - 1});
  };
  for (std::size_t s = 0; s < kShards; ++s) {
    for (std::uint64_t k = 0; k < kTokens; ++k) {
      rt.loop(s).schedule_at(
          SimTime::microseconds(static_cast<std::int64_t>(7 * s + 150 * k)),
          [&on_event, s] {
            on_event(s, Msg{static_cast<std::uint32_t>(s), 0, kHops});
          });
    }
  }
  // Touches only dst's loop: the run_until delivery contract.
  rt.run_until(SimTime::seconds(10),
               [&](std::size_t dst, SimTime arrival, Msg&& m) {
                 rt.loop(dst).schedule_at(
                     arrival, [&on_event, dst, m] { on_event(dst, m); });
               });
  for (const WindowRecord& w : rt.window_log()) {
    run.windows_log.emplace_back(w.start.ns(), w.end.ns(), w.cross_messages,
                                 w.executed);
  }
  run.windows = rt.stats().windows;
  run.cross = rt.stats().cross_messages;
  run.events = rt.events_executed();
  run.skipped = rt.stats().dispatches_skipped;
  return run;
}

TEST(OwnerDrainStress, UnevenLanesMatchOneThreadStatic) {
  const StressRun one = run_stress(1);
  // Every forwarding relay sends itself on plus kLeaves to each peer.
  constexpr std::uint64_t kSends =
      kShards * kTokens * kHops * (1 + (kShards - 1) * kLeaves);
  EXPECT_EQ(one.cross, kSends);
  EXPECT_EQ(one.events, kSends + kShards * kTokens);
  EXPECT_GT(one.windows, static_cast<std::uint64_t>(kHops));
  ASSERT_EQ(one.windows_log.size(), one.windows);  // window log not capped
  std::uint64_t logged = 0;
  for (const auto& w : one.windows_log) logged += std::get<2>(w);
  EXPECT_EQ(logged, one.cross);
  EXPECT_EQ(one, run_stress(2)) << "threads 1 vs 2";
  EXPECT_EQ(one, run_stress(3)) << "threads 1 vs 3";
  EXPECT_EQ(one, run_stress(8)) << "threads 1 vs 8 (5 lanes)";
}

}  // namespace
}  // namespace neutrino::sim::parallel
