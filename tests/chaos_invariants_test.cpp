// Chaos harness: the four Fig. 5 recovery scenarios expressed as chaos
// Schedules and checked by the online invariant checker on the 1-shard
// and 2-shard runtimes; generator/shrinker/artifact unit coverage; and a
// teeth check proving a planted bug is caught and shrunk to a minimal
// reproducer.
#include <gtest/gtest.h>

#include "chaos/generator.hpp"
#include "chaos/runner.hpp"
#include "chaos/schedule.hpp"
#include "chaos/shrink.hpp"
#include "core/system.hpp"

namespace neutrino::chaos {
namespace {

const core::FixedCostModel& costs() {
  static const core::FixedCostModel model{SimTime::microseconds(10)};
  return model;
}

/// Placement oracle over the scenario topology (4 regions x 5 CPFs).
core::System& oracle() {
  static sim::EventLoop loop;
  static core::Metrics metrics;
  static Schedule shape = [] {
    Schedule s;
    s.regions = 4;
    return s;
  }();
  static core::System system(loop, core::neutrino_policy(),
                             make_topology(shape), chaos_proto(), costs(),
                             metrics);
  return system;
}

Schedule base_schedule() {
  Schedule s;
  s.regions = 4;
  s.cpfs_per_region = 5;
  s.ues = 4;  // one per region
  s.horizon = SimTime::seconds(4);
  return s;
}

Event proc_event(SimTime at, std::uint64_t ue, core::ProcedureType type,
                 std::uint32_t target = 0) {
  Event e;
  e.at = at;
  e.kind = EventKind::kProcedure;
  e.ue = ue;
  e.proc = type;
  e.target_region = target;
  return e;
}

Event crash_event(SimTime at, CpfId cpf) {
  Event e;
  e.at = at;
  e.kind = EventKind::kCrashCpf;
  e.cpf = cpf.value();
  return e;
}

/// Run on sharded-1x1, sharded-2x1 and sharded-2x2; assert zero violations
/// everywhere and bit-identical outcomes across thread counts.
RunOutcome run_everywhere(const Schedule& s) {
  RunConfig one;
  RunOutcome lo = run_schedule(s, one, costs());
  EXPECT_EQ(lo.violation_count, 0u)
      << (lo.violations.empty() ? "" : lo.violations.front());

  RunConfig two;
  two.shards = 2;
  two.threads = 1;
  RunOutcome t1 = run_schedule(s, two, costs());
  EXPECT_EQ(t1.violation_count, 0u)
      << (t1.violations.empty() ? "" : t1.violations.front());

  two.threads = 2;
  RunOutcome t2 = run_schedule(s, two, costs());
  EXPECT_EQ(t2.violation_count, 0u)
      << (t2.violations.empty() ? "" : t2.violations.front());

  // Fixed shard count => bit-identical regardless of worker threads.
  EXPECT_EQ(t1.started, t2.started);
  EXPECT_EQ(t1.completed, t2.completed);
  EXPECT_EQ(t1.lost, t2.lost);
  EXPECT_EQ(t1.recoveries, t2.recoveries);
  EXPECT_EQ(t1.fast_handovers, t2.fast_handovers);
  EXPECT_EQ(t1.state_fetches, t2.state_fetches);

  // 2-shard partitioning must not change what happened, only where.
  EXPECT_EQ(lo.started, t1.started);
  EXPECT_EQ(lo.completed, t1.completed);
  EXPECT_EQ(lo.recoveries, t1.recoveries);
  EXPECT_EQ(lo.fast_handovers, t1.fast_handovers);
  EXPECT_EQ(lo.state_fetches, t1.state_fetches);
  return lo;
}

// --- Fig. 5 scenario 1: primary fails between procedures; the promoted
// replica already holds the full state --------------------------------------
TEST(ChaosScenarios, BackupUpToDate) {
  Schedule s = base_schedule();
  const CpfId primary = oracle().primary_cpf_for(UeId{0}, 0);
  s.events.push_back(crash_event(SimTime::milliseconds(10), primary));
  s.events.push_back(proc_event(SimTime::milliseconds(100), 0,
                                core::ProcedureType::kServiceRequest));
  const RunOutcome out = run_everywhere(s);
  EXPECT_GE(out.completed, 1u);
  EXPECT_EQ(out.lost, 0u);
}

// --- Fig. 5 scenario 2: primary dies mid-procedure; the CTA replays the
// logged messages on a promoted backup ---------------------------------------
TEST(ChaosScenarios, MidProcedureReplay) {
  Schedule s = base_schedule();
  const CpfId primary = oracle().primary_cpf_for(UeId{0}, 0);
  s.events.push_back(proc_event(SimTime::milliseconds(10), 0,
                                core::ProcedureType::kServiceRequest));
  s.events.push_back(crash_event(
      SimTime::milliseconds(10) + SimTime::microseconds(40), primary));
  const RunOutcome out = run_everywhere(s);
  std::uint64_t recovered = 0;
  for (const auto& [k, v] : out.recoveries) recovered += v;
  EXPECT_GE(recovered, 1u);  // the crash hit an in-flight procedure
  EXPECT_EQ(out.lost, 0u);
}

// --- Fig. 5 scenario 3: the whole replica set dies mid-procedure; no
// usable replica remains, the CTA commands Re-Attach -------------------------
TEST(ChaosScenarios, WholeReplicaSetLost) {
  Schedule s = base_schedule();
  const SimTime hit = SimTime::milliseconds(10) + SimTime::microseconds(40);
  s.events.push_back(proc_event(SimTime::milliseconds(10), 0,
                                core::ProcedureType::kServiceRequest));
  s.events.push_back(crash_event(hit, oracle().primary_cpf_for(UeId{0}, 0)));
  for (const CpfId b : oracle().backups_for(UeId{0}, 0)) {
    s.events.push_back(crash_event(hit, b));
  }
  const RunOutcome out = run_everywhere(s);
  EXPECT_GE(out.recoveries.count("reattach") + out.recoveries.count("hole"),
            1u);
  EXPECT_EQ(out.lost, 0u);  // the re-attach completes within the drain
}

// --- Fig. 5 scenario 4: the CTA itself dies; UEs re-attach through the
// sibling region's CTA (same shard block, so valid under 2 shards) ----------
TEST(ChaosScenarios, CtaCrashReroutes) {
  Schedule s = base_schedule();
  s.events.push_back(proc_event(SimTime::milliseconds(10), 0,
                                core::ProcedureType::kServiceRequest));
  Event cta;
  cta.at = SimTime::milliseconds(10) + SimTime::microseconds(12);
  cta.kind = EventKind::kCrashCta;
  cta.region = 0;  // reroute target 1 shares the {0,1} shard block
  s.events.push_back(cta);
  const RunOutcome out = run_everywhere(s);
  EXPECT_GE(out.completed, 1u);
  EXPECT_EQ(out.lost, 0u);
}

// --- pending_handover_ (§4.3 slow path) across crash windows ----------------
// A FastHandover arrival whose target replica is stale parks in the CPF's
// pending_handover_ map while a StateFetch runs (§4.2.4 rule 3). These
// regressions collide crash windows with that park/fetch window and pin
// the accounting: a leaked park leaves the UE mid-procedure forever
// (lost > 0 at the horizon); a stale unpark after a crash (the epoch
// guard on the fetch-timeout timer) would serve from dead state.

Event restore_event(SimTime at, CpfId cpf) {
  Event e;
  e.at = at;
  e.kind = EventKind::kRestoreCpf;
  e.cpf = cpf.value();
  return e;
}

/// Crash the target-region primary before the UE's service request (so it
/// misses the checkpoint), restore it empty, then hand the UE over to it:
/// the arrival cannot match the context and must park + fetch.
Schedule stale_target_handover() {
  Schedule s = base_schedule();
  const CpfId target = oracle().primary_cpf_for(UeId{0}, 1);
  s.events.push_back(crash_event(SimTime::milliseconds(5), target));
  s.events.push_back(proc_event(SimTime::milliseconds(10), 0,
                                core::ProcedureType::kServiceRequest));
  s.events.push_back(restore_event(SimTime::milliseconds(100), target));
  s.events.push_back(proc_event(SimTime::milliseconds(200), 0,
                                core::ProcedureType::kHandover, 1));
  return s;
}

TEST(ChaosPendingHandover, StaleTargetParksThenFetchCompletes) {
  const RunOutcome out = run_everywhere(stale_target_handover());
  EXPECT_GT(out.state_fetches, 0u) << "handover never took the slow path";
  EXPECT_GE(out.completed, 2u);  // the service request and the handover
  EXPECT_EQ(out.lost, 0u);
}

// Every CPF the parked fetch could be waiting on dies inside the window
// (swept across offsets to hit in-flight-fetch and parked interleavings):
// the fetch-timeout fallback must unpark the UE into a Re-Attach rather
// than leak it.
TEST(ChaosPendingHandover, FetchHolderDiesWhileParked) {
  const CpfId target = oracle().primary_cpf_for(UeId{0}, 1);
  const CpfId source = oracle().primary_cpf_for(UeId{0}, 0);
  for (const std::int64_t offset_us : {20ll, 120ll, 400ll}) {
    Schedule s = stale_target_handover();
    const SimTime hit =
        SimTime::milliseconds(200) + SimTime::microseconds(offset_us);
    if (source != target) s.events.push_back(crash_event(hit, source));
    for (const CpfId b : oracle().backups_for(UeId{0}, 0)) {
      if (b != target && b != source) s.events.push_back(crash_event(hit, b));
    }
    const RunOutcome out = run_everywhere(s);
    EXPECT_EQ(out.lost, 0u) << "leaked park at offset " << offset_us << "us";
  }
}

// The parked CPF itself dies inside the window: the crash clears the park
// and the CTA's failure handling recovers the in-flight handover; the
// already-armed fetch-timeout timer must notice the epoch bump and stay
// quiet instead of commanding a bogus Re-Attach after recovery.
TEST(ChaosPendingHandover, TargetCrashWhileParked) {
  const CpfId target = oracle().primary_cpf_for(UeId{0}, 1);
  for (const std::int64_t offset_us : {20ll, 120ll, 400ll}) {
    Schedule s = stale_target_handover();
    s.events.push_back(crash_event(
        SimTime::milliseconds(200) + SimTime::microseconds(offset_us),
        target));
    const RunOutcome out = run_everywhere(s);
    EXPECT_EQ(out.lost, 0u) << "leaked park at offset " << offset_us << "us";
  }
}

// --- Randomized schedules: fixed seeds, all runtimes clean ------------------
TEST(ChaosGenerator, FixedSeedsCleanOnAllRuntimes) {
  GeneratorConfig gen;
  gen.regions = 4;
  gen.ues = 12;
  gen.shards = 2;
  gen.actions = 60;
  gen.failure_bursts = 4;
  for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
    const Schedule s = generate(gen, seed, &oracle());
    EXPECT_FALSE(s.events.empty());
    run_everywhere(s);
  }
}

TEST(ChaosGenerator, DeterministicForSeed) {
  GeneratorConfig gen;
  gen.regions = 4;
  gen.shards = 2;
  const Schedule a = generate(gen, 99, &oracle());
  const Schedule b = generate(gen, 99, &oracle());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].ue, b.events[i].ue);
    EXPECT_EQ(a.events[i].cpf, b.events[i].cpf);
  }
}

TEST(ChaosGenerator, RespectsShardBlocks) {
  GeneratorConfig gen;
  gen.regions = 4;
  gen.shards = 2;  // blocks {0,1} and {2,3}
  gen.actions = 400;
  for (const std::uint64_t seed : {3ull, 4ull, 5ull}) {
    const Schedule s = generate(gen, seed, &oracle());
    for (const Event& e : s.events) {
      if (e.kind == EventKind::kProcedure &&
          e.proc == core::ProcedureType::kHandover) {
        const std::uint32_t home = static_cast<std::uint32_t>(e.ue) % 4;
        EXPECT_EQ(home / 2, e.target_region / 2)
            << "handover crosses a shard block";
      }
      if (e.kind == EventKind::kIdleMove) {
        const std::uint32_t home = static_cast<std::uint32_t>(e.ue) % 4;
        EXPECT_EQ(home / 2, e.target_region / 2);
      }
      if (e.kind == EventKind::kCrashCta) {
        EXPECT_EQ(e.region / 2, ((e.region + 1) % 4) / 2)
            << "CTA reroute crosses a shard block";
      }
    }
  }
}

// --- Artifact round-trip ----------------------------------------------------
TEST(ChaosArtifact, JsonRoundTrip) {
  Schedule s = base_schedule();
  s.seed = 1234;
  s.events.push_back(proc_event(SimTime::microseconds(5), 3,
                                core::ProcedureType::kHandover, 2));
  Event move;
  move.at = SimTime::microseconds(7);
  move.kind = EventKind::kIdleMove;
  move.ue = 1;
  move.target_region = 1;
  s.events.push_back(move);
  Event ddn;
  ddn.at = SimTime::microseconds(9);
  ddn.kind = EventKind::kTriggerDownlink;
  ddn.ue = 2;
  s.events.push_back(ddn);
  s.events.push_back(crash_event(SimTime::microseconds(11), CpfId{17}));
  Event restore;
  restore.at = SimTime::milliseconds(90);
  restore.kind = EventKind::kRestoreCpf;
  restore.cpf = 17;
  s.events.push_back(restore);
  Event cta;
  cta.at = SimTime::milliseconds(100);
  cta.kind = EventKind::kCrashCta;
  cta.region = 2;
  s.events.push_back(cta);

  core::FaultInjection faults;
  faults.cpf_stale_serves = 3;
  const std::string text = to_json({s, faults}).dump(2);
  const auto back = artifact_from_string(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->schedule.seed, s.seed);
  EXPECT_EQ(back->schedule.regions, s.regions);
  EXPECT_EQ(back->schedule.ues, s.ues);
  EXPECT_EQ(back->schedule.horizon, s.horizon);
  EXPECT_EQ(back->faults.cpf_stale_serves, 3u);
  ASSERT_EQ(back->schedule.events.size(), s.events.size());
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    EXPECT_EQ(back->schedule.events[i].at, s.events[i].at);
    EXPECT_EQ(back->schedule.events[i].kind, s.events[i].kind);
    EXPECT_EQ(back->schedule.events[i].ue, s.events[i].ue);
    EXPECT_EQ(back->schedule.events[i].proc, s.events[i].proc);
    EXPECT_EQ(back->schedule.events[i].target_region,
              s.events[i].target_region);
    EXPECT_EQ(back->schedule.events[i].cpf, s.events[i].cpf);
    EXPECT_EQ(back->schedule.events[i].region, s.events[i].region);
  }
}

TEST(ChaosArtifact, ParserRejectsGarbage) {
  EXPECT_FALSE(artifact_from_string("not json").has_value());
  EXPECT_FALSE(artifact_from_string("{\"schema\":\"other\"}").has_value());
  EXPECT_FALSE(obs::Json::parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(obs::Json::parse("[1,2").has_value());
  EXPECT_FALSE(obs::Json::parse("{} trailing").has_value());
  // Nanosecond timestamps stay exact integers (a double dumps "8e+09").
  const auto num = obs::Json::parse("8000000000");
  ASSERT_TRUE(num.has_value());
  EXPECT_EQ(num->int_or(0), 8000000000LL);
  EXPECT_EQ(num->dump(0), "8000000000");
}

// --- Shrinker ---------------------------------------------------------------
TEST(ChaosShrink, MinimizesToCulpritEvent) {
  Schedule s = base_schedule();
  for (int i = 0; i < 30; ++i) {
    s.events.push_back(proc_event(SimTime::milliseconds(1 + i), i % 4,
                                  core::ProcedureType::kServiceRequest));
  }
  Event culprit;
  culprit.at = SimTime::milliseconds(40);
  culprit.kind = EventKind::kCrashCta;
  culprit.region = 2;
  s.events.push_back(culprit);
  const auto fails = [](const Schedule& trial) {
    for (const Event& e : trial.events) {
      if (e.kind == EventKind::kCrashCta) return true;
    }
    return false;
  };
  ShrinkStats st;
  const Schedule min = shrink_schedule(s, fails, 400, &st);
  ASSERT_EQ(min.events.size(), 1u);
  EXPECT_EQ(min.events[0].kind, EventKind::kCrashCta);
  EXPECT_GT(st.removed, 0u);
}

// --- Teeth: planted bugs are caught and shrink small ------------------------
TEST(ChaosTeeth, StaleServeCaughtAndShrunk) {
  GeneratorConfig gen;
  gen.regions = 4;
  gen.ues = 8;
  gen.actions = 30;
  gen.failure_bursts = 0;
  gen.cta_crash_prob = 0.0;
  RunConfig rc;
  rc.faults.cpf_stale_serves = 3;
  const auto fails = [&rc](const Schedule& trial) {
    return run_schedule(trial, rc, costs()).violation_count > 0;
  };
  bool caught = false;
  for (std::uint64_t seed = 1; seed <= 5 && !caught; ++seed) {
    Schedule s = generate(gen, seed);
    if (!fails(s)) continue;
    caught = true;
    const Schedule min = shrink_schedule(s, fails, 300);
    EXPECT_LE(min.events.size(), 10u);
    EXPECT_GE(min.events.size(), 1u);
  }
  EXPECT_TRUE(caught) << "planted stale-serve bug survived 5 seeds";
}

TEST(ChaosTeeth, UnaccountedPruneCaughtByAudit) {
  GeneratorConfig gen;
  gen.regions = 4;
  gen.ues = 8;
  gen.actions = 30;
  gen.failure_bursts = 0;
  gen.cta_crash_prob = 0.0;
  RunConfig rc;
  rc.faults.cta_unaccounted_prunes = 3;
  const auto fails = [&rc](const Schedule& trial) {
    return run_schedule(trial, rc, costs()).violation_count > 0;
  };
  bool caught = false;
  for (std::uint64_t seed = 1; seed <= 5 && !caught; ++seed) {
    Schedule s = generate(gen, seed);
    if (!fails(s)) continue;
    caught = true;
    const Schedule min = shrink_schedule(s, fails, 300);
    EXPECT_LE(min.events.size(), 10u);
  }
  EXPECT_TRUE(caught) << "planted prune-accounting bug survived 5 seeds";
}

}  // namespace
}  // namespace neutrino::chaos
