// Differential determinism proof for the sharded runtime (DESIGN.md §11):
//
//  1. one shard ≡ the legacy single-threaded System, bit for bit —
//     counters, PCT sample order, and every traced hop timeline;
//  2. for a fixed shard count, results are bit-identical across worker
//     thread counts (1, 2, N, uneven lane ownership, and more threads
//     than shards) and across runs, including a crash + replay recovery
//     scenario with genuine cross-shard checkpoint traffic;
//  3. the consistency guarantee survives sharding: 0 RYW violations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/sharded_system.hpp"
#include "core/system.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/report.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"
#include "traffic/scenario.hpp"

namespace neutrino {
namespace {

core::TopologyConfig four_region_topo() {
  core::TopologyConfig topo;
  topo.l1_per_l2 = 4;  // one shard per region at shards=4
  return topo;
}

core::ProtocolConfig test_proto() {
  core::ProtocolConfig proto;
  proto.ack_timeout = SimTime::milliseconds(500);
  proto.log_scan_interval = SimTime::milliseconds(100);
  return proto;
}

/// Overload-control knobs armed (DESIGN.md §13): queues small enough that
/// the 1000pps storm overflows them, attach admission throttled, and NAS
/// retransmission re-driving everything that was shed or dropped.
core::ProtocolConfig overload_test_proto() {
  core::ProtocolConfig proto = test_proto();
  proto.cta_queue_capacity = 6;
  proto.cpf_queue_capacity = 6;
  proto.attach_admission_fraction = 0.5;
  proto.nas_retx_timeout = SimTime::milliseconds(20);
  proto.nas_retx_budget = 6;
  return proto;
}

/// The shared scenario: a 500ms, 1000pps storm over `regions` regions
/// with a mid-storm crash + restore of UE 0's primary CPF. Inter-region
/// handovers are excluded (unsupported across shards — UE↔CTA links sit
/// below the lookahead); intra-region handovers stay in the mix.
std::vector<traffic::TraceRecord> make_trace(int regions) {
  return traffic::uniform(/*rate_pps=*/1000, SimTime::milliseconds(500),
                          {.service_request = 0.5, .intra_handover = 0.1},
                          /*ue_population=*/200, regions, /*seed=*/11);
}

/// The overload scenario: the same mixed storm plus a synchronized
/// IoT-style attach burst (§6.1 "bursty") of 80 fresh UEs at one instant,
/// landing inside the crash window — the bounded queues must overflow and
/// the shed uplinks retransmit across a failover.
std::vector<traffic::TraceRecord> make_storm_trace(int regions) {
  std::vector<traffic::TraceRecord> recs = make_trace(regions);
  for (std::uint64_t u = 0; u < 80; ++u) {
    traffic::TraceRecord rec;
    rec.at = SimTime::milliseconds(150);
    rec.ue = UeId(300 + u);
    rec.type = core::ProcedureType::kAttach;
    recs.push_back(rec);
  }
  return recs;
}

/// Telemetry cadence and horizon every run (legacy and sharded) arms, so
/// the serialized telemetry below is comparable byte for byte.
constexpr SimTime kTelemetryWindow = SimTime::milliseconds(50);
constexpr SimTime kHorizon = SimTime::seconds(5);

std::vector<std::pair<core::ProcedureType, obs::SloTarget>> slo_targets() {
  using PT = core::ProcedureType;
  return {
      {PT::kAttach, {1.0, 2.0, 4.0}},
      {PT::kServiceRequest, {0.5, 1.0, 2.0}},
      {PT::kReattach, {2.0, 4.0, 8.0}},
      {PT::kTau, {0.5, 1.0, 2.0}},
  };
}

struct ShardRun {
  core::Metrics metrics;              // merged across shards
  std::vector<std::string> dumps;     // per-shard tracer timelines
  std::uint64_t windows = 0;
  std::uint64_t cross_messages = 0;
  std::uint64_t events = 0;
  // Deep-telemetry layer, serialized (DESIGN.md §15): all three must be
  // byte-identical across worker-thread counts.
  std::string telemetry_json;         // merged windowed series
  std::string slo_json;               // merged SLO burn tracker
  std::string flight_json;            // merged flight recorders
};

/// The replay ShardedSystem had before event streams, kept as the oracle
/// for System::replay: one schedule_at per record, in trace order, on the
/// record's home shard.
void eager_replay(core::ShardedSystem& sys,
                  const std::vector<traffic::TraceRecord>& trace) {
  for (const traffic::TraceRecord& rec : trace) {
    core::System& home = sys.system(sys.shard_of_ue(rec.ue));
    home.loop().schedule_at(rec.at, [&home, rec] {
      home.frontend().start_procedure(rec.ue, rec.type, rec.target_region);
    });
  }
}

ShardRun run_sharded(std::uint32_t shards, std::uint32_t threads,
                bool with_crash, std::uint64_t preattached,
                const core::ProtocolConfig& proto = test_proto(),
                bool storm = false,
                const std::vector<traffic::TraceRecord>* custom_trace =
                    nullptr,
                bool eager = false) {
  const core::FixedCostModel costs{SimTime::microseconds(10)};
  core::ShardedSystem::Config cfg;
  cfg.policy = core::neutrino_policy();
  cfg.topo = four_region_topo();
  cfg.proto = proto;
  cfg.shards = shards;
  cfg.threads = threads;
  core::ShardedSystem sys(cfg, costs);

  obs::TracerConfig tc;
  tc.record_events = true;
  tc.keep_all = true;
  std::vector<std::unique_ptr<obs::ProcTracer>> tracers;
  std::vector<obs::FlightRecorder> flights;
  flights.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    tracers.push_back(std::make_unique<obs::ProcTracer>(tc));
    sys.attach_tracer(s, *tracers.back());
    flights.emplace_back(/*capacity=*/128);
    sys.attach_flight_recorder(s, flights.back());
  }
  sys.arm_telemetry(kTelemetryWindow, kHorizon);
  sys.arm_slo(kTelemetryWindow, slo_targets());

  const auto regions =
      static_cast<std::uint32_t>(cfg.topo.total_regions());
  for (std::uint64_t ue = 0; ue < preattached; ++ue) {
    sys.preattach(UeId(ue), static_cast<std::uint32_t>(ue % regions));
  }

  if (custom_trace != nullptr) {
    if (eager) {
      eager_replay(sys, *custom_trace);
    } else {
      sys.replay(*custom_trace);
    }
  } else {
    sys.replay(storm ? make_storm_trace(static_cast<int>(regions))
                     : make_trace(static_cast<int>(regions)));
  }
  if (with_crash) {
    const CpfId doomed =
        sys.system(0).primary_cpf_for(UeId{0}, /*region=*/0);
    sys.schedule_crash(SimTime::milliseconds(120), doomed);
    sys.schedule_restore(SimTime::milliseconds(320), doomed);
  }
  sys.run_until(kHorizon);

  ShardRun run{.metrics = sys.merged_metrics(),
               .dumps = {},
               .windows = sys.stats().windows,
               .cross_messages = sys.stats().cross_messages,
               .events = sys.events_executed(),
               .telemetry_json = {},
               .slo_json = {},
               .flight_json = {}};
  for (auto& tracer : tracers) {
    run.dumps.push_back(tracer->dump_json().dump(0));
  }
  run.telemetry_json =
      obs::windowed_series_json(run.metrics.registry).dump(0);
  if (const obs::SloTracker* slo = run.metrics.slo()) {
    run.slo_json = slo->json().dump(0);
  }
  std::vector<const obs::FlightRecorder*> flight_ptrs;
  for (const obs::FlightRecorder& f : flights) flight_ptrs.push_back(&f);
  run.flight_json = obs::FlightRecorder::merge_flight(flight_ptrs).dump(0);
  return run;
}

void expect_identical(const ShardRun& a, const ShardRun& b, const char* label) {
  EXPECT_EQ(a.windows, b.windows) << label;
  EXPECT_EQ(a.cross_messages, b.cross_messages) << label;
  EXPECT_EQ(a.events, b.events) << label;
  a.metrics.registry.for_each_counter(
      [&](const std::string& key, const obs::Counter& counter) {
        const obs::Counter* other = b.metrics.registry.find_counter(key);
        ASSERT_NE(other, nullptr) << label << ": missing " << key;
        EXPECT_EQ(counter.value(), other->value()) << label << ": " << key;
      });
  for (std::size_t i = 0; i < core::kProcTypes; ++i) {
    const auto sa = a.metrics.pct[i].summary();
    const auto sb = b.metrics.pct[i].summary();
    EXPECT_EQ(sa.count, sb.count) << label << " proc " << i;
    EXPECT_EQ(sa.mean, sb.mean) << label << " proc " << i;
    EXPECT_EQ(sa.p50, sb.p50) << label << " proc " << i;
    EXPECT_EQ(sa.p99, sb.p99) << label << " proc " << i;
    EXPECT_EQ(sa.max, sb.max) << label << " proc " << i;
  }
  ASSERT_EQ(a.dumps.size(), b.dumps.size()) << label;
  for (std::size_t s = 0; s < a.dumps.size(); ++s) {
    EXPECT_EQ(a.dumps[s], b.dumps[s]) << label << " shard " << s;
  }
  // Deep telemetry must not observe the thread count: series, SLO burn
  // windows and the merged flight timeline are compared as serialized
  // bytes, the strictest equality available.
  EXPECT_EQ(a.telemetry_json, b.telemetry_json) << label << " telemetry";
  EXPECT_EQ(a.slo_json, b.slo_json) << label << " slo";
  EXPECT_EQ(a.flight_json, b.flight_json) << label << " flight";
}

// ---------------------------------------------------------------------------
// 1-shard parallel == legacy single-threaded System, bit for bit.
// ---------------------------------------------------------------------------

TEST(ParallelDeterminism, OneShardMatchesLegacySystem) {
  // Legacy: the exact pattern every bench uses today.
  const core::FixedCostModel costs{SimTime::microseconds(10)};
  sim::EventLoop loop;
  core::Metrics legacy_metrics;
  core::System legacy(loop, core::neutrino_policy(), four_region_topo(),
                      test_proto(), costs, legacy_metrics);
  obs::TracerConfig tc;
  tc.record_events = true;
  tc.keep_all = true;
  obs::ProcTracer legacy_tracer(tc);
  legacy.attach_tracer(legacy_tracer);
  obs::FlightRecorder legacy_flight(/*capacity=*/128);
  legacy.attach_flight_recorder(legacy_flight);
  legacy.arm_telemetry(kTelemetryWindow, kHorizon);
  legacy_metrics.arm_slo(kTelemetryWindow, slo_targets());
  std::vector<core::System::Arrival> arrivals;
  for (const auto& rec : make_trace(4)) {
    arrivals.push_back(core::System::Arrival::of(rec));
  }
  legacy.replay(std::move(arrivals));
  const CpfId doomed = legacy.primary_cpf_for(UeId{0}, 0);
  loop.schedule_at(SimTime::milliseconds(120),
                   [&legacy, doomed] { legacy.crash_cpf(doomed); });
  loop.schedule_at(SimTime::milliseconds(320),
                   [&legacy, doomed] { legacy.restore_cpf(doomed); });
  loop.run_until(kHorizon);

  const ShardRun sharded = run_sharded(/*shards=*/1, /*threads=*/1,
                                  /*with_crash=*/true, /*preattached=*/0);

  // Sanity: the scenario exercised attach, recovery and replay paths.
  EXPECT_GT(legacy_metrics.procedures_completed, 400u);
  EXPECT_GT(legacy_metrics.replays + legacy_metrics.failovers +
                legacy_metrics.reattaches,
            0u);
  EXPECT_EQ(legacy_metrics.ryw_violations, 0u);

  EXPECT_EQ(sharded.events, loop.executed());
  EXPECT_EQ(sharded.cross_messages, 0u);
  legacy_metrics.registry.for_each_counter(
      [&](const std::string& key, const obs::Counter& counter) {
        const obs::Counter* other =
            sharded.metrics.registry.find_counter(key);
        ASSERT_NE(other, nullptr) << key;
        EXPECT_EQ(counter.value(), other->value()) << key;
      });
  for (std::size_t i = 0; i < core::kProcTypes; ++i) {
    const auto sl = legacy_metrics.pct[i].summary();
    const auto ss = sharded.metrics.pct[i].summary();
    EXPECT_EQ(sl.count, ss.count) << "proc " << i;
    EXPECT_EQ(sl.mean, ss.mean) << "proc " << i;
    EXPECT_EQ(sl.p50, ss.p50) << "proc " << i;
    EXPECT_EQ(sl.p99, ss.p99) << "proc " << i;
    EXPECT_EQ(sl.max, ss.max) << "proc " << i;
  }
  ASSERT_EQ(sharded.dumps.size(), 1u);
  EXPECT_EQ(legacy_tracer.dump_json().dump(0), sharded.dumps[0]);

  // Telemetry parity: the legacy System with telemetry armed produces the
  // same windowed series, SLO windows and flight timeline as the 1-shard
  // runtime, byte for byte.
  EXPECT_EQ(obs::windowed_series_json(legacy_metrics.registry).dump(0),
            sharded.telemetry_json);
  ASSERT_NE(legacy_metrics.slo(), nullptr);
  EXPECT_EQ(legacy_metrics.slo()->json().dump(0), sharded.slo_json);
  EXPECT_EQ(obs::FlightRecorder::merge_flight({&legacy_flight}).dump(0),
            sharded.flight_json);
}

// ---------------------------------------------------------------------------
// Fixed shard count: identical across worker-thread counts and runs,
// through crash + replay, with real cross-shard traffic.
// ---------------------------------------------------------------------------

TEST(ParallelDeterminism, FourShardsIdenticalAcrossThreadCounts) {
  const ShardRun t1 = run_sharded(4, 1, /*with_crash=*/true, 0);

  // Sanity: cross-shard outboxes actually carried the checkpoint/ack and
  // recovery traffic (Neutrino's level-2 backups live on other shards).
  EXPECT_GT(t1.cross_messages, 0u);
  EXPECT_GT(t1.windows, 0u);
  EXPECT_GT(t1.metrics.procedures_completed, 400u);
  EXPECT_GT(t1.metrics.checkpoints_sent, 0u);
  EXPECT_GT(t1.metrics.replays + t1.metrics.failovers +
                t1.metrics.reattaches,
            0u);
  EXPECT_EQ(t1.metrics.ryw_violations, 0u);
  // Telemetry really sampled: windowed series exist, the SLO tracker saw
  // completions, and the crash/restore injections hit the flight ring.
  EXPECT_NE(t1.telemetry_json.find("ts.events"), std::string::npos);
  EXPECT_FALSE(t1.slo_json.empty());
  EXPECT_NE(t1.flight_json.find("crash_cpf"), std::string::npos);
  EXPECT_NE(t1.flight_json.find("restore_cpf"), std::string::npos);

  const ShardRun t2 = run_sharded(4, 2, true, 0);
  const ShardRun t4 = run_sharded(4, 4, true, 0);
  const ShardRun t8 = run_sharded(4, 8, true, 0);  // clamped to 4 lanes
  const ShardRun t2_again = run_sharded(4, 2, true, 0);
  expect_identical(t1, t2, "threads 1 vs 2");
  expect_identical(t1, t4, "threads 1 vs 4");
  expect_identical(t1, t8, "threads 1 vs 8");
  expect_identical(t2, t2_again, "run-to-run at threads=2");
}

// ---------------------------------------------------------------------------
// Overload control armed: shedding, bounded-queue drops and NAS
// retransmission (including retransmits racing a crash + replay) stay
// bit-identical across worker-thread counts. Retx timers are scheduled on
// each shard's own loop, so this is the guarantee that backpressure does
// not leak wall-clock nondeterminism into the simulation.
// ---------------------------------------------------------------------------

TEST(ParallelDeterminism, OverloadBackpressureIdenticalAcrossThreadCounts) {
  const ShardRun t1 = run_sharded(4, 1, /*with_crash=*/true, 0,
                                  overload_test_proto(), /*storm=*/true);

  // Sanity: the bounded queues really pushed back and the retx path
  // really re-drove work — otherwise this sweep proves nothing.
  EXPECT_GT(t1.metrics.attach_sheds + t1.metrics.overload_drops, 0u);
  EXPECT_GT(t1.metrics.nas_retransmissions, 0u);
  EXPECT_GT(t1.metrics.procedures_completed, 200u);
  EXPECT_EQ(t1.metrics.ryw_violations, 0u);
  // The overload machinery shows up in the flight timeline and the shed
  // series — the dumps chaos ships with a reproducer carry real signal.
  EXPECT_NE(t1.flight_json.find("nas_retx"), std::string::npos);
  EXPECT_NE(t1.telemetry_json.find("ts.shed"), std::string::npos);

  const ShardRun t2 = run_sharded(4, 2, true, 0, overload_test_proto(), true);
  const ShardRun t4 = run_sharded(4, 4, true, 0, overload_test_proto(), true);
  const ShardRun t8 = run_sharded(4, 8, true, 0, overload_test_proto(), true);
  const ShardRun t4_again =
      run_sharded(4, 4, true, 0, overload_test_proto(), true);
  expect_identical(t1, t2, "overload threads 1 vs 2");
  expect_identical(t1, t4, "overload threads 1 vs 4");
  expect_identical(t1, t8, "overload threads 1 vs 8");
  expect_identical(t4, t4_again, "overload run-to-run at threads=4");
}

// ---------------------------------------------------------------------------
// Uneven lane ownership: 4 shards on 3 threads puts shards 0 and 3 on the
// calling thread's lane and one shard on each worker, so lanes finish
// windows and drains at different moments. Outcomes and telemetry bytes
// must still match one thread owning everything.
// ---------------------------------------------------------------------------

TEST(ParallelDeterminism, UnevenLaneOwnershipIdenticalToOneThread) {
  const ShardRun t1 = run_sharded(4, 1, /*with_crash=*/true, 0,
                                  overload_test_proto(), /*storm=*/true);
  const ShardRun t3 = run_sharded(4, 3, true, 0, overload_test_proto(), true);
  EXPECT_GT(t1.cross_messages, 0u);
  expect_identical(t1, t3, "uneven lanes threads 1 vs 3");
}

// ---------------------------------------------------------------------------
// Traffic-engine scenario (DESIGN.md §17) as the replayed workload: the
// generator is a pure function of its request (bitwise run-to-run), and
// replaying the generated stream stays bit-identical across worker-thread
// counts {1, 2, 4, 8} and across runs — the guarantee the benches'
// --scenario= mode rests on. iot-firmware-push exercises the engine's
// hardest structure: two device classes, a mid-run envelope wave and
// synchronized duty-cycle wakeup spikes.
// ---------------------------------------------------------------------------

TEST(ParallelDeterminism, ScenarioTrafficIdenticalAcrossThreadCounts) {
  traffic::ScenarioRequest req;
  req.target_pps = 2'000.0;
  req.duration = SimTime::milliseconds(500);
  req.population = 200;
  req.regions = 4;
  req.seed = 17;
  const auto gen = traffic::generate_scenario("iot-firmware-push", req);
  ASSERT_TRUE(gen.has_value());
  ASSERT_FALSE(gen->records.empty());
  // The generator itself is deterministic: a second call with the same
  // request yields the identical stream, record for record.
  const auto gen_again =
      traffic::generate_scenario("iot-firmware-push", req);
  ASSERT_TRUE(gen_again.has_value());
  ASSERT_EQ(gen->records.size(), gen_again->records.size());
  for (std::size_t i = 0; i < gen->records.size(); ++i) {
    ASSERT_EQ(gen->records[i].at, gen_again->records[i].at) << i;
    ASSERT_EQ(gen->records[i].ue.value(),
              gen_again->records[i].ue.value()) << i;
    ASSERT_EQ(gen->records[i].type, gen_again->records[i].type) << i;
  }

  const ShardRun t1 =
      run_sharded(4, 1, /*with_crash=*/false, /*preattached=*/200,
                  test_proto(), /*storm=*/false, &gen->records);
  EXPECT_EQ(t1.metrics.ryw_violations, 0u);
  EXPECT_GT(t1.metrics.procedures_completed, 100u);
  EXPECT_EQ(t1.metrics.procedures_completed, t1.metrics.procedures_started);

  const ShardRun t2 =
      run_sharded(4, 2, false, 200, test_proto(), false, &gen->records);
  const ShardRun t4 =
      run_sharded(4, 4, false, 200, test_proto(), false, &gen->records);
  const ShardRun t8 = run_sharded(4, 8, false, 200, test_proto(), false,
                                  &gen->records);  // clamped to 4 lanes
  const ShardRun t2_again =
      run_sharded(4, 2, false, 200, test_proto(), false, &gen->records);
  expect_identical(t1, t2, "scenario threads 1 vs 2");
  expect_identical(t1, t4, "scenario threads 1 vs 4");
  expect_identical(t1, t8, "scenario threads 1 vs 8");
  expect_identical(t2, t2_again, "scenario run-to-run at threads=2");
}

// ---------------------------------------------------------------------------
// Stream replay: each shard replays its records as one event stream
// (System::replay). Its queue holds one arrival at a time, and the run is
// the one the eager replay above gives — also on an unsorted trace with
// duplicate and same-instant records, where the stream must release
// arrivals in (time, trace position) order.
// ---------------------------------------------------------------------------

TEST(ParallelDeterminism, ReplayQueuesOneEventPerStream) {
  const core::FixedCostModel costs{SimTime::microseconds(10)};
  core::ShardedSystem::Config cfg;
  cfg.policy = core::neutrino_policy();
  cfg.topo = four_region_topo();
  cfg.proto = test_proto();
  cfg.shards = 4;
  core::ShardedSystem sys(cfg, costs);
  const std::vector<traffic::TraceRecord> trace = make_storm_trace(4);
  sys.replay(trace);
  for (std::uint32_t s = 0; s < sys.shards(); ++s) {
    EXPECT_LE(sys.runtime().loop(s).pending(), 1u) << "shard " << s;
  }
  sys.arm_telemetry(kTelemetryWindow, kHorizon);  // a second stream
  for (std::uint32_t s = 0; s < sys.shards(); ++s) {
    EXPECT_LE(sys.runtime().loop(s).pending(), 2u) << "shard " << s;
  }
  sys.run_until(kHorizon);
  const core::Metrics m = sys.merged_metrics();
  EXPECT_GT(m.procedures_started, trace.size() / 2);
  EXPECT_EQ(m.ryw_violations, 0u);
}

/// The storm trace (its 80 appended attaches already break time order)
/// plus a repeat of every 9th record, a same-(time, UE) record of another
/// procedure type after every 13th, and a reversed middle block.
std::vector<traffic::TraceRecord> unsorted_trace() {
  std::vector<traffic::TraceRecord> recs = make_storm_trace(4);
  const std::size_t n = recs.size();
  for (std::size_t i = 0; i < n; i += 9) recs.push_back(recs[i]);
  for (std::size_t i = 0; i < n; i += 13) {
    traffic::TraceRecord other = recs[i];
    other.type = other.type == core::ProcedureType::kAttach
                     ? core::ProcedureType::kServiceRequest
                     : core::ProcedureType::kAttach;
    recs.insert(recs.begin() + static_cast<std::ptrdiff_t>(i + 1), other);
  }
  std::reverse(recs.begin() + static_cast<std::ptrdiff_t>(n / 3),
               recs.begin() + static_cast<std::ptrdiff_t>(n / 2));
  return recs;
}

TEST(ParallelDeterminism, StreamReplayMatchesEagerReplayOnUnsortedTrace) {
  const std::vector<traffic::TraceRecord> trace = unsorted_trace();
  ASSERT_FALSE(std::is_sorted(
      trace.begin(), trace.end(),
      [](const traffic::TraceRecord& a, const traffic::TraceRecord& b) {
        return a.at < b.at;
      }));
  for (const std::uint32_t shards : {1u, 4u}) {
    const std::string label = std::to_string(shards) + " shard(s)";
    const ShardRun stream =
        run_sharded(shards, shards, /*with_crash=*/true, 0,
                    overload_test_proto(), /*storm=*/false, &trace);
    const ShardRun eager =
        run_sharded(shards, shards, true, 0, overload_test_proto(), false,
                    &trace, /*eager=*/true);
    EXPECT_GT(stream.metrics.procedures_completed, 200u) << label;
    EXPECT_EQ(stream.metrics.ryw_violations, 0u) << label;
    expect_identical(stream, eager, label.c_str());
  }
}

// ---------------------------------------------------------------------------
// UEs are pinned to their home shard (UE↔CTA links sit below the
// lookahead). An inter-shard handover would drive a shadow CTA, so the run
// aborts naming the region, its owner and the calling shard — in every
// build type, not only under assert().
// ---------------------------------------------------------------------------

TEST(ParallelDeterminism, CrossShardHandoverAbortsInEveryBuild) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto hand_over_across_shards = [] {
    const core::FixedCostModel costs{SimTime::microseconds(10)};
    core::ShardedSystem::Config cfg;
    cfg.policy = core::neutrino_policy();
    cfg.topo = four_region_topo();
    cfg.shards = 2;  // regions {0, 1} | {2, 3}
    core::ShardedSystem sys(cfg, costs);
    sys.preattach(UeId{0}, /*region=*/0);
    traffic::TraceRecord ho;
    ho.at = SimTime::milliseconds(1);
    ho.ue = UeId{0};
    ho.type = core::ProcedureType::kHandover;
    ho.target_region = 2;
    sys.replay(std::vector<traffic::TraceRecord>{ho});
    sys.run_until(SimTime::seconds(1));
  };
  EXPECT_DEATH(hand_over_across_shards(),
               "cross-shard UE->CTA link: region 2 is owned by shard 1, "
               "called on shard 0");
}

// ---------------------------------------------------------------------------
// Sharded preattach: replica state installed across shard boundaries
// serves reads with zero RYW violations.
// ---------------------------------------------------------------------------

TEST(ParallelDeterminism, ShardedPreattachServesConsistentReads) {
  const ShardRun t1 = run_sharded(4, 1, /*with_crash=*/false,
                             /*preattached=*/200);
  EXPECT_EQ(t1.metrics.ryw_violations, 0u);
  EXPECT_EQ(t1.metrics.reattaches, 0u);  // preinstalled state was found
  EXPECT_EQ(t1.metrics.procedures_completed,
            t1.metrics.procedures_started);
  EXPECT_GT(t1.metrics.procedures_completed, 400u);
  EXPECT_GT(t1.cross_messages, 0u);

  const ShardRun t4 = run_sharded(4, 4, false, 200);
  expect_identical(t1, t4, "preattached threads 1 vs 4");
}

}  // namespace
}  // namespace neutrino
