// Differential determinism proof for the event-loop rewrite: the 4-ary
// heap + timer wheel, and event streams (EventLoop::schedule_stream), must
// dispatch in the exact (when, seq) order the seed's std::priority_queue
// produced with every event scheduled eagerly — first on adversarial
// synthetic schedules, then on a full core workload with crash + replay,
// where any ordering divergence would surface as different counters,
// latency distributions, or trace hop timelines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <queue>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "core/system.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"
#include "traffic/engine.hpp"

namespace neutrino {
namespace {

/// The seed's event loop, reproduced as the ordering oracle.
class LegacyLoop {
 public:
  [[nodiscard]] SimTime now() const { return now_; }

  void schedule_at(SimTime when, std::function<void()> cb) {
    queue_.push(Event{when, next_seq_++, std::move(cb)});
  }
  void schedule_after(SimTime delay, std::function<void()> cb) {
    schedule_at(now_ + delay, std::move(cb));
  }

  void run() {
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = ev.when;
      ev.callback();
    }
  }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    std::function<void()> callback;
    bool operator>(const Event& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  SimTime now_;
  std::uint64_t next_seq_ = 0;
};

struct Plan {
  std::int64_t at_ns;
  int id;
};

/// A 2-slot wheel spans 2us, so nearly every event takes the heap path.
sim::EventLoop::Config two_slot_wheel() {
  sim::EventLoop::Config cfg;
  cfg.wheel_slots = 2;
  return cfg;
}

/// Loop geometries every differential runs under: the default wheel, the
/// heap path (2 slots), and coarse 64us ticks that sort many timestamps
/// per bucket.
std::vector<sim::EventLoop::Config> geometries() {
  sim::EventLoop::Config coarse;
  coarse.wheel_granularity_ns = 64'000;
  coarse.wheel_slots = 64;
  return {sim::EventLoop::Config{}, two_slot_wheel(), coarse};
}

/// Adversarial schedule: times quantized to force ties (seq tie-breaks),
/// clustered near zero (wheel buckets) with a far-future tail (heap
/// overflow), plus callback-scheduled children landing on already-drained
/// ticks.
std::vector<Plan> make_plans(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Plan> plans;
  plans.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::int64_t at;
    const double dice = rng.next_double();
    if (dice < 0.6) {  // dense near-future cluster, 500ns quanta
      at = static_cast<std::int64_t>(rng.next_below(4'000)) * 500;
    } else if (dice < 0.9) {  // mid-range, still inside the wheel span
      at = static_cast<std::int64_t>(rng.next_below(4'000'000));
    } else {  // beyond the default wheel horizon: heap path
      at = static_cast<std::int64_t>(rng.next_below(400'000'000));
    }
    plans.push_back({at, i});
  }
  return plans;
}

template <typename Loop>
std::vector<int> dispatch_order(Loop& loop, const std::vector<Plan>& plans,
                                const std::vector<std::int64_t>& child_delay) {
  std::vector<int> order;
  order.reserve(plans.size() * 2);
  for (const Plan& p : plans) {
    loop.schedule_at(SimTime::nanoseconds(p.at_ns), [&loop, &order,
                                                     &child_delay, p] {
      order.push_back(p.id);
      if (p.id % 5 == 0) {
        const std::int64_t d =
            child_delay[static_cast<std::size_t>(p.id) % child_delay.size()];
        loop.schedule_after(SimTime::nanoseconds(d),
                            [&order, cid = p.id + 1'000'000] {
                              order.push_back(cid);
                            });
      }
    });
  }
  loop.run();
  return order;
}

TEST(DeterminismPureLoop, MatchesLegacyPriorityQueueOrder) {
  // Child delays include 0 (same-timestamp reschedule onto a drained
  // tick) and assorted magnitudes spanning wheel and heap placement.
  const std::vector<std::int64_t> child_delay = {0,     1,       499,
                                                 500,   12'345,  1'000'000,
                                                 3'000, 900'000, 50'000'000};
  for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
    const std::vector<Plan> plans = make_plans(seed, 4000);

    LegacyLoop legacy;
    const std::vector<int> want =
        dispatch_order(legacy, plans, child_delay);
    ASSERT_GT(want.size(), plans.size());  // children actually ran

    for (const sim::EventLoop::Config& cfg : geometries()) {
      sim::EventLoop loop(cfg);
      const std::vector<int> got = dispatch_order(loop, plans, child_delay);
      ASSERT_EQ(got, want) << "seed " << seed << " slots "
                           << cfg.wheel_slots;
    }
  }
}

TEST(DeterminismPureLoop, CoarseWheelGranularityPreservesOrder) {
  // 64us ticks put many distinct timestamps in one bucket: the sorted
  // drain must still interleave them with heap events exactly.
  const std::vector<std::int64_t> child_delay = {0, 100, 64'000, 7'777'777};
  const std::vector<Plan> plans = make_plans(99, 3000);
  LegacyLoop legacy;
  const std::vector<int> want = dispatch_order(legacy, plans, child_delay);

  sim::EventLoop::Config cfg;
  cfg.wheel_granularity_ns = 64'000;
  cfg.wheel_slots = 64;
  sim::EventLoop loop(cfg);
  EXPECT_EQ(dispatch_order(loop, plans, child_delay), want);
}

// ---------------------------------------------------------------------------
// Streams (EventLoop::schedule_stream) against the LegacyLoop scheduling
// every event of each stream eagerly, in offset order, at the moment the
// stream is registered. Streams registered at start and mid-run
// interleave with eager events and with each other, tie with both at the
// same nanosecond, span the wheel and the heap, and include lengths 0
// and 1.

struct StreamLog {
  std::vector<int> order;
  std::vector<std::int64_t> child_delay;  // empty: no children
};

/// Log an event; every fifth id also schedules an eager child, as
/// dispatch_order() does, so stream and eager events interleave mid-run.
template <typename Loop>
void fire_event(Loop& loop, StreamLog& log, int id) {
  log.order.push_back(id);
  if (!log.child_delay.empty() && id % 5 == 0) {
    const std::int64_t d =
        log.child_delay[static_cast<std::size_t>(id) % log.child_delay.size()];
    loop.schedule_after(SimTime::nanoseconds(d),
                        [&log, cid = id + 1'000'000] {
                          log.order.push_back(cid);
                        });
  }
}

/// Stream over explicit times given in offset order (not necessarily
/// sorted): it dispatches them stable-sorted by time, as System::replay
/// does with an unsorted trace.
struct PlanStream {
  sim::EventLoop* loop;
  StreamLog* log;
  std::vector<std::int64_t> at_ns;
  int id_base;
  std::vector<std::uint32_t> by_time;  // dispatch index -> offset

  PlanStream(sim::EventLoop& l, StreamLog& lg, std::vector<std::int64_t> at,
             int base)
      : loop(&l), log(&lg), at_ns(std::move(at)), id_base(base) {
    by_time.resize(at_ns.size());
    std::iota(by_time.begin(), by_time.end(), 0u);
    std::stable_sort(by_time.begin(), by_time.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                       return at_ns[a] < at_ns[b];
                     });
  }
  [[nodiscard]] std::uint64_t size() const { return at_ns.size(); }
  [[nodiscard]] SimTime when(std::uint64_t k) const {
    return SimTime::nanoseconds(at_ns[by_time[k]]);
  }
  [[nodiscard]] std::uint64_t offset(std::uint64_t k) const {
    return by_time[k];
  }
  void fire(std::uint64_t k) {
    fire_event(*loop, *log, id_base + static_cast<int>(by_time[k]));
  }
};

template <typename Loop>
void add_stream(Loop& loop, StreamLog& log, std::vector<std::int64_t> at_ns,
                int id_base) {
  if constexpr (std::is_same_v<Loop, LegacyLoop>) {
    for (std::size_t i = 0; i < at_ns.size(); ++i) {
      loop.schedule_at(SimTime::nanoseconds(at_ns[i]),
                       [&loop, &log, id = id_base + static_cast<int>(i)] {
                         fire_event(loop, log, id);
                       });
    }
  } else {
    loop.schedule_stream(PlanStream(loop, log, std::move(at_ns), id_base));
  }
}

/// Unsorted stream times from `now`: exact ties at `now`, 500ns quanta
/// shared with make_plans(), the rest of the default wheel span, and
/// beyond it (heap).
std::vector<std::int64_t> stream_times(Rng& rng, int n, std::int64_t now) {
  std::vector<std::int64_t> at;
  at.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double dice = rng.next_double();
    std::int64_t d;
    if (dice < 0.1) {
      d = 0;
    } else if (dice < 0.6) {
      d = static_cast<std::int64_t>(rng.next_below(4'000)) * 500;
    } else if (dice < 0.85) {
      d = static_cast<std::int64_t>(rng.next_below(4'000'000));
    } else {
      d = static_cast<std::int64_t>(rng.next_below(400'000'000));
    }
    at.push_back(now + d);
  }
  return at;
}

template <typename Loop>
std::vector<int> stream_dispatch_order(Loop& loop, std::uint64_t seed) {
  StreamLog log;
  log.child_delay = {0, 1, 500, 12'345, 3'000, 900'000, 50'000'000};
  const std::vector<Plan> plans = make_plans(seed, 1200);
  Rng rng(seed + 1);
  const auto eager = [&](const Plan& p) {
    loop.schedule_at(SimTime::nanoseconds(p.at_ns), [&loop, &log, id = p.id] {
      fire_event(loop, log, id);
    });
  };

  // At start: eager events on both sides of stream A; stream B shares
  // some of A's times, so the two streams tie with each other too.
  for (std::size_t i = 0; i < 600; ++i) eager(plans[i]);
  const std::vector<std::int64_t> a = stream_times(rng, 800, 0);
  add_stream(loop, log, a, 100'000);
  for (std::size_t i = 600; i < plans.size(); ++i) eager(plans[i]);
  std::vector<std::int64_t> b = stream_times(rng, 200, 0);
  b.insert(b.end(), a.rbegin(), a.rbegin() + 100);
  add_stream(loop, log, b, 200'000);
  add_stream(loop, log, {}, 300'000);
  add_stream(loop, log, {plans[3].at_ns}, 400'000);

  // Mid-run: eager events register streams relative to their own time,
  // including one-event streams at exactly now, then an eager peer at now.
  std::vector<std::vector<std::int64_t>> mid;
  for (int m = 0; m < 4; ++m) mid.push_back(stream_times(rng, 150, 0));
  for (int m = 0; m < 4; ++m) {
    const Plan& p = plans[static_cast<std::size_t>(m) * 97];
    loop.schedule_at(SimTime::nanoseconds(p.at_ns), [&loop, &log, &mid, m] {
      const std::int64_t now = loop.now().ns();
      std::vector<std::int64_t> times = mid[static_cast<std::size_t>(m)];
      for (std::int64_t& t : times) t += now;
      add_stream(loop, log, std::move(times), 500'000 + m * 10'000);
      add_stream(loop, log, {}, 600'000 + m);
      add_stream(loop, log, {now}, 700'000 + m);
      loop.schedule_at(loop.now(),
                       [&log, m] { log.order.push_back(800'000 + m); });
    });
  }
  loop.run();
  return log.order;
}

TEST(DeterminismStreams, MatchEagerSchedulingInLegacyLoop) {
  for (const std::uint64_t seed : {3ull, 17ull, 2024ull}) {
    LegacyLoop legacy;
    const std::vector<int> want = stream_dispatch_order(legacy, seed);
    // Every planned event ran: 1200 eager + 1100 start-of-run stream
    // events + 4 x (150 + 1 + 1) mid-run, plus children.
    ASSERT_GT(want.size(), 1200u + 1100u + 4u * 152u);
    for (const sim::EventLoop::Config& cfg : geometries()) {
      sim::EventLoop loop(cfg);
      ASSERT_EQ(stream_dispatch_order(loop, seed), want)
          << "seed " << seed << " slots " << cfg.wheel_slots;
    }
  }
}

TEST(DeterminismStreams, QueueHoldsOneEventPerStream) {
  sim::EventLoop loop;
  StreamLog log;
  add_stream(loop, log, {5, 1, 3, 3, 9}, 0);  // seqs 0..4
  add_stream(loop, log, {}, 100);             // reserves nothing
  add_stream(loop, log, {2}, 200);            // seq 5
  loop.schedule_at(SimTime::nanoseconds(3),   // seq 6: after both 3s
                   [&log] { log.order.push_back(999); });
  EXPECT_EQ(loop.pending(), 3u);
  loop.run_until(SimTime::nanoseconds(3));
  EXPECT_EQ(loop.pending(), 1u);  // the stream's t=5 event; t=9 unreleased
  loop.run();
  EXPECT_EQ(loop.executed(), 7u);
  EXPECT_EQ(log.order, (std::vector<int>{1, 200, 2, 3, 999, 0, 4}));
}

/// A stream whose second key precedes its first: a broken source.
struct BackwardsStream {
  [[nodiscard]] std::uint64_t size() const { return 2; }
  [[nodiscard]] SimTime when(std::uint64_t k) const {
    return SimTime::nanoseconds(k == 0 ? 10 : 5);
  }
  [[nodiscard]] std::uint64_t offset(std::uint64_t k) const { return k; }
  void fire(std::uint64_t) {}
};

TEST(DeterminismStreams, DecreasingKeysAbortInEveryBuild) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        sim::EventLoop loop;
        loop.schedule_stream(BackwardsStream{});
        loop.run();
      },
      "stream keys must increase");
}

// ---------------------------------------------------------------------------
// Core workload differential: wheel on (default geometry) vs off (a
// 2-slot wheel sends nearly every event through the heap) across a
// crash + replay scenario. Wheel geometry is a pure
// optimization; if it reordered anything, the protocol's message
// interleaving — and with it the counters, the latency distributions, and
// each procedure's hop timeline — would drift.

struct CoreRun {
  core::Metrics metrics;
  std::string trace_dump;
};

CoreRun run_core_workload(const sim::EventLoop::Config& cfg) {
  sim::EventLoop loop(cfg);
  core::Metrics metrics;
  core::FixedCostModel costs{SimTime::microseconds(10)};
  core::TopologyConfig topo;
  topo.l1_per_l2 = 2;  // two regions: handovers are part of the mix
  core::ProtocolConfig proto;
  proto.ack_timeout = SimTime::milliseconds(500);
  proto.log_scan_interval = SimTime::milliseconds(100);
  core::System system(loop, core::neutrino_policy(), topo, proto, costs,
                      metrics);

  obs::TracerConfig tc;
  tc.record_events = true;
  tc.keep_all = true;
  obs::ProcTracer tracer(tc);
  system.attach_tracer(tracer);

  std::vector<core::System::Arrival> arrivals;
  for (const auto& rec : traffic::uniform(
           /*rate_pps=*/1000, SimTime::milliseconds(500),
           {.service_request = 0.5, .handover = 0.1},
           /*ue_population=*/120, /*regions=*/2, /*seed=*/11)) {
    arrivals.push_back(core::System::Arrival::of(rec));
  }
  system.replay(std::move(arrivals));

  // Mid-storm crash of a loaded CPF, restored shortly after: exercises
  // replay recovery and checkpoint retransmission under both loops.
  const CpfId doomed = system.primary_cpf_for(UeId{0}, 0);
  loop.schedule_at(SimTime::milliseconds(120),
                   [&system, doomed] { system.crash_cpf(doomed); });
  loop.schedule_at(SimTime::milliseconds(320),
                   [&system, doomed] { system.restore_cpf(doomed); });

  loop.run_until(SimTime::seconds(5));
  return {std::move(metrics), tracer.dump_json().dump(0)};
}

TEST(DeterminismCoreWorkload, WheelOnAndOffProduceIdenticalRuns) {
  CoreRun wheel = run_core_workload(sim::EventLoop::Config{});
  CoreRun heap = run_core_workload(two_slot_wheel());

  // Sanity: the scenario actually exercised the interesting paths.
  EXPECT_GT(wheel.metrics.procedures_completed, 400u);
  EXPECT_GT(wheel.metrics.replays + wheel.metrics.failovers +
                wheel.metrics.reattaches,
            0u);
  EXPECT_EQ(wheel.metrics.ryw_violations, 0u);

  EXPECT_EQ(wheel.metrics.procedures_started,
            heap.metrics.procedures_started);
  EXPECT_EQ(wheel.metrics.procedures_completed,
            heap.metrics.procedures_completed);
  EXPECT_EQ(wheel.metrics.replays, heap.metrics.replays);
  EXPECT_EQ(wheel.metrics.failovers, heap.metrics.failovers);
  EXPECT_EQ(wheel.metrics.reattaches, heap.metrics.reattaches);
  EXPECT_EQ(wheel.metrics.checkpoints_sent, heap.metrics.checkpoints_sent);
  EXPECT_EQ(wheel.metrics.checkpoint_acks, heap.metrics.checkpoint_acks);
  EXPECT_EQ(wheel.metrics.log_appends, heap.metrics.log_appends);
  EXPECT_EQ(wheel.metrics.ryw_violations, heap.metrics.ryw_violations);

  // Latency distributions must match to the last bit: same samples in
  // the same order.
  for (std::size_t i = 0; i < core::kProcTypes; ++i) {
    const auto a = wheel.metrics.pct[i].summary();
    const auto b = heap.metrics.pct[i].summary();
    EXPECT_EQ(a.count, b.count) << "proc " << i;
    EXPECT_EQ(a.mean, b.mean) << "proc " << i;
    EXPECT_EQ(a.p50, b.p50) << "proc " << i;
    EXPECT_EQ(a.p99, b.p99) << "proc " << i;
    EXPECT_EQ(a.max, b.max) << "proc " << i;
  }

  // And every traced procedure's hop-by-hop timeline is identical.
  EXPECT_EQ(wheel.trace_dump, heap.trace_dump);
}

}  // namespace
}  // namespace neutrino
