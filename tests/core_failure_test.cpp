// Failure recovery: the four §4.2.5 scenarios, out-of-date marking
// (§4.2.4), and a randomized Read-your-Writes property sweep.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/system.hpp"

namespace neutrino::core {
namespace {

struct Harness {
  explicit Harness(CorePolicy policy, TopologyConfig topo = {}) {
    proto.ack_timeout = SimTime::milliseconds(500);
    proto.log_scan_interval = SimTime::milliseconds(100);
    system =
        std::make_unique<System>(loop, policy, topo, proto, costs, metrics);
  }

  void run_to(SimTime horizon) { loop.run_until(horizon); }

  sim::EventLoop loop;
  FixedCostModel costs{SimTime::microseconds(10)};
  ProtocolConfig proto;
  Metrics metrics;
  std::unique_ptr<System> system;
};

// --- Scenario 1: primary fails, backup is up to date ------------------------

TEST(FailureScenario1, BackupServesWithoutReattach) {
  Harness h(neutrino_policy());
  const UeId ue{42};
  h.system->frontend().start_procedure(ue, ProcedureType::kAttach);
  h.run_to(SimTime::seconds(1));  // attach + checkpoints + ACKs done
  ASSERT_EQ(h.metrics.procedures_completed, 1u);

  const CpfId primary = h.system->primary_cpf_for(ue, 0);
  h.system->crash_cpf(primary);
  h.run_to(SimTime::seconds(2));

  h.system->frontend().start_procedure(ue, ProcedureType::kServiceRequest);
  h.run_to(SimTime::seconds(4));

  EXPECT_EQ(h.metrics.procedures_completed, 2u);
  EXPECT_EQ(h.metrics.reattaches, 0u);  // failure fully masked (§4.2.5)
  EXPECT_EQ(h.metrics.ryw_violations, 0u);
}

// --- Scenario 2: primary fails mid-procedure, log replay on backup ---------

TEST(FailureScenario2, ReplayReconstructsInFlightProcedure) {
  Harness h(neutrino_policy());
  const UeId ue{42};
  h.system->frontend().start_procedure(ue, ProcedureType::kAttach);
  // Crash the primary while the attach is still in flight (an attach takes
  // several round trips of ~100 us each here).
  const CpfId primary = h.system->primary_cpf_for(ue, 0);
  h.loop.schedule_at(SimTime::microseconds(40),
                     [&] { h.system->crash_cpf(primary); });
  h.run_to(SimTime::seconds(5));

  EXPECT_EQ(h.metrics.procedures_completed, 1u);
  EXPECT_GT(h.metrics.replays, 0u);      // messages re-driven from the log
  EXPECT_EQ(h.metrics.reattaches, 0u);   // no Re-Attach needed
  EXPECT_EQ(h.metrics.ryw_violations, 0u);
  EXPECT_TRUE(h.system->frontend().is_attached(ue));

  // The recovered procedure's state must have landed on the new serving
  // CPF exactly as if the failure never happened.
  bool someone_has_final_state = false;
  for (int cpf = 0; cpf < h.system->topo().total_cpfs(); ++cpf) {
    const auto* state = h.system->cpf(CpfId(static_cast<std::uint32_t>(cpf)))
                            .peek_state(ue);
    if (state != nullptr && state->attached &&
        state->last_completed_proc == 1) {
      someone_has_final_state = true;
    }
  }
  EXPECT_TRUE(someone_has_final_state);
}

TEST(FailureScenario2, ReplayedRecoveryIsFasterThanReattach) {
  // The paper's Fig. 10 claim in miniature: Neutrino's replay beats the
  // EPC's re-attach for the same failure point.
  double pct[2];
  int idx = 0;
  for (const auto& policy : {neutrino_policy(), existing_epc_policy()}) {
    Harness h(policy);
    const UeId ue{42};
    h.system->frontend().preattach(ue, 0);
    h.system->frontend().start_procedure(ue, ProcedureType::kServiceRequest);
    const CpfId primary = h.system->primary_cpf_for(ue, 0);
    h.loop.schedule_at(SimTime::microseconds(25),
                       [&] { h.system->crash_cpf(primary); });
    h.run_to(SimTime::seconds(5));
    ASSERT_EQ(h.metrics.procedures_completed, 1u) << policy.name;
    EXPECT_EQ(h.metrics.ryw_violations, 0u);
    pct[idx++] =
        h.metrics.pct_for(ProcedureType::kServiceRequest).median();
  }
  EXPECT_LT(pct[0], pct[1]);  // Neutrino < EPC
}

// --- Scenario 3: all replicas out of sync -> Re-Attach ----------------------

TEST(FailureScenario3, AllReplicasDeadForcesReattach) {
  Harness h(neutrino_policy());
  const UeId ue{42};
  h.system->frontend().start_procedure(ue, ProcedureType::kAttach);
  h.run_to(SimTime::seconds(1));
  ASSERT_EQ(h.metrics.procedures_completed, 1u);

  // Kill the primary *and* every backup: no usable replica remains.
  const CpfId primary = h.system->primary_cpf_for(ue, 0);
  for (const CpfId b : h.system->backups_for(ue, 0)) {
    h.system->crash_cpf(b);
  }
  h.system->crash_cpf(primary);
  h.run_to(SimTime::seconds(2));

  h.system->frontend().start_procedure(ue, ProcedureType::kServiceRequest);
  h.run_to(SimTime::seconds(6));

  EXPECT_GE(h.metrics.reattaches, 1u);
  EXPECT_EQ(h.metrics.procedures_completed, 2u);  // completed via Re-Attach
  EXPECT_EQ(h.metrics.ryw_violations, 0u);        // never served stale
  EXPECT_TRUE(h.system->frontend().is_attached(ue));
}

TEST(FailureScenario3, EpcAlwaysReattaches) {
  Harness h(existing_epc_policy());
  const UeId ue{42};
  h.system->frontend().preattach(ue, 0);
  h.system->frontend().start_procedure(ue, ProcedureType::kServiceRequest);
  const CpfId primary = h.system->primary_cpf_for(ue, 0);
  h.loop.schedule_at(SimTime::microseconds(25),
                     [&] { h.system->crash_cpf(primary); });
  h.run_to(SimTime::seconds(5));
  EXPECT_GE(h.metrics.reattaches, 1u);
  EXPECT_EQ(h.metrics.replays, 0u);
  EXPECT_EQ(h.metrics.procedures_completed, 1u);
}

// --- Scenario 4: CTA fails --------------------------------------------------

TEST(FailureScenario4, CtaFailureReattachesThroughNewCta) {
  TopologyConfig topo;
  topo.l1_per_l2 = 2;  // a sibling region provides the "new CTA"
  Harness h(neutrino_policy(), topo);
  const UeId ue{42};
  h.system->frontend().preattach(ue, 0);
  h.system->frontend().start_procedure(ue, ProcedureType::kServiceRequest);
  h.loop.schedule_at(SimTime::microseconds(12),
                     [&] { h.system->crash_cta(0); });
  h.run_to(SimTime::seconds(5));

  EXPECT_GE(h.metrics.reattaches, 1u);
  EXPECT_EQ(h.metrics.procedures_completed, 1u);
  EXPECT_EQ(h.metrics.ryw_violations, 0u);
  // The UE now lives in the sibling region.
  EXPECT_EQ(h.system->frontend().region_of(ue), 1u);
}

// --- SkyCore-style failover -------------------------------------------------

TEST(Failover, SkyCoreResumesOnBackupWithoutReattach) {
  Harness h(skycore_policy());
  const UeId ue{42};
  h.system->frontend().preattach(ue, 0);
  h.system->frontend().start_procedure(ue, ProcedureType::kServiceRequest);
  const CpfId primary = h.system->primary_cpf_for(ue, 0);
  h.loop.schedule_at(SimTime::microseconds(25),
                     [&] { h.system->crash_cpf(primary); });
  h.run_to(SimTime::seconds(5));
  EXPECT_EQ(h.metrics.procedures_completed, 1u);
  EXPECT_GE(h.metrics.failovers, 1u);
  EXPECT_EQ(h.metrics.ryw_violations, 0u);
}

// --- §4.2.4 out-of-date marking ---------------------------------------------

TEST(OutdatedMarking, AckTimeoutMarksLaggingReplicaAndPrunesLog) {
  Harness h(neutrino_policy());
  const UeId ue{42};
  // Kill one designated backup *before* the attach so its ACK never comes.
  const auto backups = h.system->backups_for(ue, 0);
  ASSERT_EQ(backups.size(), 2u);
  h.system->crash_cpf(backups[1]);

  h.system->frontend().start_procedure(ue, ProcedureType::kAttach);
  h.run_to(SimTime::seconds(5));  // well past ack_timeout (500 ms)

  EXPECT_EQ(h.metrics.procedures_completed, 1u);
  // The scan fired, told the laggard (delivery dropped: it is dead), and
  // dropped the log entries (§4.2.4 1d).
  EXPECT_GE(h.metrics.outdated_notifies, 1u);
  EXPECT_EQ(h.system->cta(0).log_messages(), 0u);
  // The surviving backup is current and can still mask a primary failure.
  EXPECT_TRUE(h.system->cpf(backups[0]).has_up_to_date(ue));
}

TEST(OutdatedMarking, LateReplicaRefusesToServeStaleState) {
  Harness h(neutrino_policy());
  const UeId ue{42};
  const auto backups = h.system->backups_for(ue, 0);
  h.system->frontend().start_procedure(ue, ProcedureType::kAttach);
  h.run_to(SimTime::seconds(1));

  // Second procedure: crash backup[0] before it can ACK, let the timeout
  // mark it outdated, then restore it and fail everyone else over to it.
  h.system->crash_cpf(backups[0]);
  h.system->frontend().start_procedure(ue, ProcedureType::kServiceRequest);
  h.run_to(SimTime::seconds(3));
  h.system->restore_cpf(backups[0]);

  const CpfId primary = h.system->primary_cpf_for(ue, 0);
  h.system->crash_cpf(primary);
  h.system->crash_cpf(backups[1]);
  h.run_to(SimTime::seconds(4));

  h.system->frontend().start_procedure(ue, ProcedureType::kServiceRequest);
  h.run_to(SimTime::seconds(8));

  // The restored replica lost its state in the crash; it must force a
  // Re-Attach rather than serve anything stale.
  EXPECT_GE(h.metrics.reattaches, 1u);
  EXPECT_EQ(h.metrics.ryw_violations, 0u);
  EXPECT_EQ(h.metrics.procedures_completed, 3u);
}

TEST(OutdatedMarking, MarkerClockAboveTwoToTheThirtyTwoHolds) {
  Harness h(neutrino_policy());
  const UeId ue{42};
  h.system->frontend().preattach(ue, 0);
  const CpfId replica = h.system->backups_for(ue, 0).front();
  ASSERT_TRUE(h.system->cpf(replica).has_up_to_date(ue));
  // A marker clock whose low 32 bits are tiny: a packing that truncates
  // it would let any later checkpoint restore the replica.
  const LogicalClock::Value marker = (LogicalClock::Value{1} << 32) + 7;
  Msg notify;
  notify.kind = MsgKind::kOutdatedNotify;
  notify.ue = ue;
  notify.proc_seq = 2;  // newer than the preinstalled state's procedure 1
  notify.lclock = marker;
  h.system->cpf(replica).deliver(notify);
  h.run_to(SimTime::milliseconds(10));
  ASSERT_FALSE(h.system->cpf(replica).has_up_to_date(ue));

  const auto checkpoint = [&](LogicalClock::Value lclock, SimTime until) {
    UeState state = *h.system->cpf(replica).peek_state(ue);
    state.last_completed_proc = 2;
    state.last_lclock = lclock;
    Msg ckpt;
    ckpt.kind = MsgKind::kStateCheckpoint;
    ckpt.ue = ue;
    ckpt.proc_seq = 2;
    ckpt.lclock = lclock;
    ckpt.state = StateRef(state);
    h.system->cpf(replica).deliver(std::move(ckpt));
    h.run_to(until);
  };
  // One tick short of the marker: newer data is kept, the replica stays
  // outdated.
  checkpoint(marker - 1, SimTime::milliseconds(20));
  EXPECT_FALSE(h.system->cpf(replica).has_up_to_date(ue));
  EXPECT_EQ(h.system->cpf(replica).peek_state(ue)->last_lclock, marker - 1);
  // At the marker: current again.
  checkpoint(marker, SimTime::milliseconds(30));
  EXPECT_TRUE(h.system->cpf(replica).has_up_to_date(ue));
  EXPECT_EQ(h.system->cpf(replica).peek_state(ue)->last_lclock, marker);
}

// --- Randomized property sweep ----------------------------------------------

struct PropertyParams {
  std::uint64_t seed;
  int regions;
  bool crash_ctas;
};

class RandomizedFailures : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(RandomizedFailures, RywHoldsAndSystemConverges) {
  const auto params = GetParam();
  TopologyConfig topo;
  topo.l1_per_l2 = params.regions;
  Harness h(neutrino_policy(), topo);
  Rng rng(params.seed);

  constexpr int kUes = 40;
  for (int i = 0; i < kUes; ++i) {
    h.system->frontend().preattach(
        UeId{static_cast<std::uint64_t>(i)},
        static_cast<std::uint32_t>(
            i % h.system->topo().total_regions()));
  }

  // Random procedures over 2 simulated seconds...
  SimTime t;
  for (int step = 0; step < 400; ++step) {
    t += SimTime::microseconds(
        static_cast<std::int64_t>(rng.next_below(5000)));
    const UeId ue{rng.next_below(kUes)};
    const double dice = rng.next_double();
    h.loop.schedule_at(t, [&h, ue, dice] {
      const std::uint32_t cur = h.system->frontend().region_of(ue);
      const auto regions = static_cast<std::uint32_t>(
          h.system->topo().total_regions());
      if (dice < 0.40) {
        h.system->frontend().start_procedure(ue,
                                             ProcedureType::kServiceRequest);
      } else if (dice < 0.55 && regions > 1) {
        h.system->frontend().start_procedure(ue, ProcedureType::kHandover,
                                             (cur + 1) % regions);
      } else if (dice < 0.65 && regions > 1) {
        h.system->frontend().idle_move(ue, (cur + 1) % regions);
        h.system->frontend().start_procedure(ue, ProcedureType::kTau);
      } else if (dice < 0.72) {
        h.system->frontend().start_procedure(ue, ProcedureType::kDetach);
      } else if (dice < 0.80) {
        h.system->trigger_downlink(ue);  // paging path (Fig. 2 scenario)
      } else {
        h.system->frontend().start_procedure(ue, ProcedureType::kAttach);
      }
    });
  }
  // ...interleaved with random CPF crashes and restores.
  SimTime ft;
  for (int f = 0; f < 12; ++f) {
    ft += SimTime::microseconds(
        static_cast<std::int64_t>(rng.next_below(150'000)));
    const auto victim = CpfId(static_cast<std::uint32_t>(
        rng.next_below(static_cast<std::uint64_t>(
            h.system->topo().total_cpfs()))));
    h.loop.schedule_at(ft, [&h, victim] {
      if (h.system->cpf_alive(victim)) {
        h.system->crash_cpf(victim);
      } else {
        h.system->restore_cpf(victim);
      }
    });
    if (params.crash_ctas && f == 5 && params.regions > 1) {
      h.loop.schedule_at(ft + SimTime::milliseconds(1),
                         [&h] { h.system->crash_cta(0); });
    }
  }

  h.run_to(SimTime::seconds(60));

  // The invariant the whole design exists for:
  EXPECT_EQ(h.metrics.ryw_violations, 0u) << "seed " << params.seed;
  // Liveness: the system converged (work drained) and made progress.
  EXPECT_TRUE(h.loop.empty());
  EXPECT_GT(h.metrics.procedures_completed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomizedFailures,
    ::testing::Values(PropertyParams{1, 1, false}, PropertyParams{2, 1, false},
                      PropertyParams{3, 4, false}, PropertyParams{4, 4, false},
                      PropertyParams{5, 4, true}, PropertyParams{6, 2, true},
                      PropertyParams{7, 4, false}, PropertyParams{8, 2, false},
                      PropertyParams{9, 4, true},
                      PropertyParams{10, 1, false}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_r" +
             std::to_string(info.param.regions) +
             (info.param.crash_ctas ? "_cta" : "");
    });

}  // namespace
}  // namespace neutrino::core
