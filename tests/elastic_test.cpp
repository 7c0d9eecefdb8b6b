// Elastic control plane (DESIGN.md §19): live CPF scale-out/in.
//
// State-handoff semantics at the System level — exactly-once migration
// with per-UE procedure sequence numbers preserved, no UE routed to both
// the old and the new owner, drains that collide with in-flight
// procedures completing through the existing pin/replay machinery — plus
// churn-under-chaos coverage: generated join/leave schedules clean on
// every runtime, and bit-identical across worker-thread counts
// {1, 2, 4, 8} while churn collides with a crash window.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "chaos/generator.hpp"
#include "chaos/runner.hpp"
#include "chaos/schedule.hpp"
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
  s.ues = 8;
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

Event churn_event(SimTime at, EventKind kind, CpfId cpf) {
  Event e;
  e.at = at;
  e.kind = kind;
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

  EXPECT_EQ(t1.started, t2.started);
  EXPECT_EQ(t1.completed, t2.completed);
  EXPECT_EQ(t1.lost, t2.lost);
  EXPECT_EQ(t1.recoveries, t2.recoveries);
  EXPECT_EQ(t1.scale_outs, t2.scale_outs);
  EXPECT_EQ(t1.drains, t2.drains);
  EXPECT_EQ(t1.handoff_ues, t2.handoff_ues);

  EXPECT_EQ(lo.started, t1.started);
  EXPECT_EQ(lo.completed, t1.completed);
  EXPECT_EQ(lo.recoveries, t1.recoveries);
  EXPECT_EQ(lo.scale_outs, t1.scale_outs);
  EXPECT_EQ(lo.drains, t1.drains);
  EXPECT_EQ(lo.handoff_ues, t1.handoff_ues);
  return lo;
}

// ---------------------------------------------------------------------------
// Direct System-level handoff semantics.
// ---------------------------------------------------------------------------

struct Lab {
  sim::EventLoop loop;
  core::Metrics metrics;
  core::System system;

  Lab()
      : system(loop, core::neutrino_policy(), make_topology(Schedule{}),
               chaos_proto(), costs(), metrics) {}

  /// Preattach `ues` UEs (u % 4 homed) and complete one service request
  /// each, so every UE holds real post-preattach state worth migrating.
  void settle(std::uint32_t ues) {
    for (std::uint64_t u = 0; u < ues; ++u) {
      system.frontend().preattach(UeId{u},
                                  static_cast<std::uint32_t>(u % 4));
    }
    for (std::uint64_t u = 0; u < ues; ++u) {
      loop.schedule_at(
          SimTime::milliseconds(1) + SimTime::microseconds(200 * u),
          [this, u] {
            system.frontend().start_procedure(
                UeId{u}, core::ProcedureType::kServiceRequest, 0);
          });
    }
    loop.run_until(SimTime::seconds(1));
  }
};

TEST(ElasticHandoff, DrainMigratesEveryServedUeExactlyOnce) {
  Lab lab;
  lab.settle(24);
  const CpfId victim = lab.system.primary_cpf_for(UeId{0}, 0);

  // The victim's pre-drain key range: region-0 UEs it primaries, with the
  // procedure count each one's migrated state must preserve.
  std::map<std::uint64_t, std::uint64_t> moved;  // ue -> completed procs
  std::vector<std::uint64_t> stayed;
  for (std::uint64_t u = 0; u < 24; u += 4) {  // region-0 UEs
    if (lab.system.hashed_primary_for(UeId{u}, 0) == victim) {
      moved[u] = lab.system.frontend().completed(UeId{u});
      EXPECT_GT(moved[u], 0u);
    } else {
      stayed.push_back(u);
    }
  }
  ASSERT_FALSE(moved.empty()) << "victim served no region-0 UE";

  lab.loop.schedule_at(SimTime::seconds(1) + SimTime::milliseconds(1),
                       [&] { lab.system.drain_cpf(victim); });
  lab.loop.run_until(SimTime::seconds(2));

  // Membership: out of the ring immediately, retired (dead) after the
  // grace; the ring epoch advanced exactly once.
  EXPECT_FALSE(lab.system.cpf_in_ring(victim));
  EXPECT_FALSE(lab.system.cpf_alive(victim));
  EXPECT_EQ(lab.system.ring_epoch(), 1u);
  EXPECT_EQ(lab.metrics.drains, 1u);

  // Exactly-once: every migrated UE's state landed on its new hashed
  // owner with the procedure sequence intact, the CTA routes it there
  // (never to both — the old owner is out of the ring and dead), and the
  // handoff counter matches the migrated set precisely.
  for (const auto& [u, completed] : moved) {
    const UeId ue{u};
    const CpfId now = lab.system.hashed_primary_for(ue, 0);
    EXPECT_NE(now, victim) << "ue " << u;
    const core::UeState* st = lab.system.cpf(now).peek_state(ue);
    ASSERT_NE(st, nullptr) << "ue " << u << " state never arrived";
    EXPECT_EQ(st->last_completed_proc, completed) << "ue " << u;
    EXPECT_EQ(lab.system.cta(0).route(ue), now) << "ue " << u;
  }
  EXPECT_EQ(lab.metrics.handoff_ues, moved.size());

  // Unaffected keys kept their owner (the consistent-hashing bound).
  for (const std::uint64_t u : stayed) {
    EXPECT_EQ(lab.system.hashed_primary_for(UeId{u}, 0),
              lab.system.cta(0).route(UeId{u}))
        << "ue " << u;
  }

  // Draining a non-member is a no-op, not a second migration.
  lab.loop.schedule_at(SimTime::seconds(2) + SimTime::milliseconds(1),
                       [&] { lab.system.drain_cpf(victim); });
  lab.loop.run_until(SimTime::seconds(3));
  EXPECT_EQ(lab.metrics.drains, 1u);
  EXPECT_EQ(lab.metrics.ryw_violations, 0u);
}

TEST(ElasticHandoff, ScaleOutPullsHashedKeysBackWithStatePreserved) {
  Lab lab;
  lab.settle(24);
  const CpfId victim = lab.system.primary_cpf_for(UeId{0}, 0);

  lab.loop.schedule_at(SimTime::seconds(1) + SimTime::milliseconds(1),
                       [&] { lab.system.drain_cpf(victim); });
  // Post-drain traffic advances the migrated UEs on their interim owners.
  for (std::uint64_t u = 0; u < 24; u += 4) {
    lab.loop.schedule_at(
        SimTime::milliseconds(1500) + SimTime::microseconds(200 * u),
        [&lab, u] {
          lab.system.frontend().start_procedure(
              UeId{u}, core::ProcedureType::kServiceRequest, 0);
        });
  }
  lab.loop.schedule_at(SimTime::seconds(2),
                       [&] { lab.system.scale_out_cpf(victim); });
  lab.loop.run_until(SimTime::seconds(3));

  // Re-admitted: alive, back in the ring, epoch bumped for the join too.
  EXPECT_TRUE(lab.system.cpf_in_ring(victim));
  EXPECT_TRUE(lab.system.cpf_alive(victim));
  EXPECT_EQ(lab.system.ring_epoch(), 2u);
  EXPECT_EQ(lab.metrics.scale_outs, 1u);
  EXPECT_GT(lab.metrics.handoff_ues, 0u);

  // Full membership restored => the original hashing is back; every UE
  // the joiner now primaries got its state (with the procedure count the
  // interim owner advanced it to) handed over at join time.
  std::uint64_t pulled = 0;
  for (std::uint64_t u = 0; u < 24; u += 4) {
    const UeId ue{u};
    if (lab.system.hashed_primary_for(ue, 0) != victim) continue;
    ++pulled;
    const core::UeState* st = lab.system.cpf(victim).peek_state(ue);
    ASSERT_NE(st, nullptr) << "ue " << u << " not handed to the joiner";
    EXPECT_EQ(st->last_completed_proc,
              lab.system.frontend().completed(ue))
        << "ue " << u;
    EXPECT_EQ(lab.system.cta(0).route(ue), victim) << "ue " << u;
  }
  EXPECT_GT(pulled, 0u);

  // Scaling out a member is a no-op.
  lab.loop.schedule_at(SimTime::seconds(3) + SimTime::milliseconds(1),
                       [&] { lab.system.scale_out_cpf(victim); });
  lab.loop.run_until(SimTime::seconds(4));
  EXPECT_EQ(lab.metrics.scale_outs, 1u);
  EXPECT_EQ(lab.system.ring_epoch(), 2u);
  EXPECT_EQ(lab.metrics.ryw_violations, 0u);
}

// ---------------------------------------------------------------------------
// Drain colliding with an in-flight procedure: the pin holds the route on
// the draining owner until the procedure's messages clear, and the
// retirement rides the existing crash/replay recovery — swept across
// offsets to hit pre-pin, mid-procedure and retirement interleavings.
// ---------------------------------------------------------------------------

TEST(ElasticChurn, DrainMidProcedureCompletesOnEveryRuntime) {
  const CpfId primary = oracle().primary_cpf_for(UeId{0}, 0);
  for (const std::int64_t offset_us : {20ll, 40ll, 400ll}) {
    Schedule s = base_schedule();
    s.events.push_back(proc_event(SimTime::milliseconds(10), 0,
                                  core::ProcedureType::kServiceRequest));
    s.events.push_back(churn_event(
        SimTime::milliseconds(10) + SimTime::microseconds(offset_us),
        EventKind::kDrain, primary));
    // More traffic across the grace window and past the retirement, so
    // the re-homed UE keeps reading its own writes on the new owner.
    s.events.push_back(proc_event(SimTime::milliseconds(150), 0,
                                  core::ProcedureType::kServiceRequest));
    s.events.push_back(proc_event(SimTime::milliseconds(400), 0,
                                  core::ProcedureType::kServiceRequest));
    const RunOutcome out = run_everywhere(s);
    EXPECT_EQ(out.drains, 1u) << "offset " << offset_us << "us";
    EXPECT_GE(out.completed, 3u) << "offset " << offset_us << "us";
    EXPECT_EQ(out.lost, 0u) << "leaked UE at offset " << offset_us << "us";
    EXPECT_EQ(out.ryw_metric, 0u);
  }
}

// ---------------------------------------------------------------------------
// Generated churn schedules: join/leave interleaved with crash bursts,
// clean on 1-shard and 2-shard runtimes.
// ---------------------------------------------------------------------------

TEST(ElasticChurn, GeneratedChurnSchedulesCleanOnAllRuntimes) {
  GeneratorConfig gen;
  gen.regions = 4;
  gen.ues = 12;
  gen.shards = 2;
  gen.actions = 60;
  gen.failure_bursts = 3;
  gen.churn_events = 3;
  std::uint64_t drains = 0;
  std::uint64_t handoffs = 0;
  for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
    const Schedule s = generate(gen, seed, &oracle());
    EXPECT_FALSE(s.events.empty());
    const RunOutcome out = run_everywhere(s);
    drains += out.drains;
    handoffs += out.handoff_ues;
  }
  // The knob has teeth: across the seeds, churn really ran and really
  // migrated state (otherwise this suite regresses into plain chaos).
  EXPECT_GT(drains, 0u);
  EXPECT_GT(handoffs, 0u);
}

// ---------------------------------------------------------------------------
// Parallel determinism under churn: a schedule whose drain/join windows
// collide with a crash window must be bit-identical across worker-thread
// counts {1, 2, 4, 8} — counters AND the merged flight timeline.
// ---------------------------------------------------------------------------

TEST(ParallelDeterminism, ElasticChurnIdenticalAcrossThreadCounts) {
  GeneratorConfig gen;
  gen.regions = 4;
  gen.ues = 16;
  gen.shards = 2;
  gen.actions = 80;
  gen.failure_bursts = 4;
  gen.churn_events = 3;
  Schedule s = generate(gen, 7, &oracle());
  // Force the crash-during-handoff collision: crash another region-0 CPF
  // inside the first drain's grace window.
  const Event* first_drain = nullptr;
  for (const Event& e : s.events) {
    if (e.kind == EventKind::kDrain) {
      first_drain = &e;
      break;
    }
  }
  ASSERT_NE(first_drain, nullptr) << "seed drew no churn";
  const std::uint32_t drained = first_drain->cpf;
  const std::uint32_t buddy =
      (drained / 5) * 5 + (drained % 5 + 1) % 5;  // same region, != drained
  Event crash;
  crash.at = first_drain->at + SimTime::milliseconds(50);
  crash.kind = EventKind::kCrashCpf;
  crash.cpf = buddy;
  s.events.push_back(crash);
  Event restore = crash;
  restore.at = crash.at + SimTime::milliseconds(150);
  restore.kind = EventKind::kRestoreCpf;
  s.events.push_back(restore);

  RunConfig rc;
  rc.shards = 2;
  rc.record_flight = true;
  rc.flight_capacity = 4096;

  std::vector<RunOutcome> outs;
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    rc.threads = threads;
    outs.push_back(run_schedule(s, rc, costs()));
    EXPECT_EQ(outs.back().violation_count, 0u)
        << "threads " << threads << ": "
        << (outs.back().violations.empty() ? ""
                                           : outs.back().violations.front());
  }
  // Sanity: churn + crash both actually happened and migrated state.
  EXPECT_GT(outs[0].drains, 0u);
  EXPECT_GT(outs[0].handoff_ues, 0u);
  EXPECT_NE(outs[0].flight_json.find("drain_cpf"), std::string::npos);
  EXPECT_NE(outs[0].flight_json.find("crash_cpf"), std::string::npos);
  for (std::size_t i = 1; i < outs.size(); ++i) {
    EXPECT_EQ(outs[0].started, outs[i].started) << "sweep " << i;
    EXPECT_EQ(outs[0].completed, outs[i].completed) << "sweep " << i;
    EXPECT_EQ(outs[0].lost, outs[i].lost) << "sweep " << i;
    EXPECT_EQ(outs[0].recoveries, outs[i].recoveries) << "sweep " << i;
    EXPECT_EQ(outs[0].scale_outs, outs[i].scale_outs) << "sweep " << i;
    EXPECT_EQ(outs[0].drains, outs[i].drains) << "sweep " << i;
    EXPECT_EQ(outs[0].handoff_ues, outs[i].handoff_ues) << "sweep " << i;
    EXPECT_EQ(outs[0].flight_json, outs[i].flight_json) << "sweep " << i;
  }
}

}  // namespace
}  // namespace neutrino::chaos
