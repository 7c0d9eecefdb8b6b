// End-to-end control procedures on the simulated core, no failures.
#include <gtest/gtest.h>

#include "core/system.hpp"

namespace neutrino::core {
namespace {

struct Harness {
  explicit Harness(CorePolicy policy, TopologyConfig topo = {}) {
    ProtocolConfig proto;
    proto.ack_timeout = SimTime::milliseconds(500);
    proto.log_scan_interval = SimTime::milliseconds(100);
    system = std::make_unique<System>(loop, policy, topo, proto, costs,
                                      metrics);
  }

  void run(SimTime horizon = SimTime::seconds(10)) {
    loop.run_until(horizon);
  }

  sim::EventLoop loop;
  FixedCostModel costs{SimTime::microseconds(10)};
  Metrics metrics;
  std::unique_ptr<System> system;
};

TEST(Attach, CompletesAndInstallsState) {
  Harness h(neutrino_policy());
  const UeId ue{42};
  h.system->frontend().start_procedure(ue, ProcedureType::kAttach);
  h.run();

  EXPECT_EQ(h.metrics.procedures_completed, 1u);
  EXPECT_TRUE(h.system->frontend().is_attached(ue));
  EXPECT_EQ(h.metrics.pct_for(ProcedureType::kAttach).count(), 1u);
  EXPECT_EQ(h.metrics.ryw_violations, 0u);

  // State must be at the primary, attached and procedure-complete.
  const CpfId primary = h.system->primary_cpf_for(ue, 0);
  const UeState* state = h.system->cpf(primary).peek_state(ue);
  ASSERT_NE(state, nullptr);
  EXPECT_TRUE(state->attached);
  EXPECT_TRUE(state->session_active);
  EXPECT_EQ(state->last_completed_proc, 1u);

  // A UPF session exists.
  EXPECT_TRUE(h.system->upf(0).has_session(ue));
}

TEST(Attach, CheckpointsReachAllBackups) {
  Harness h(neutrino_policy());
  const UeId ue{42};
  h.system->frontend().start_procedure(ue, ProcedureType::kAttach);
  h.run();

  const auto backups = h.system->backups_for(ue, 0);
  ASSERT_EQ(backups.size(), 2u);
  for (const CpfId b : backups) {
    EXPECT_TRUE(h.system->cpf(b).has_up_to_date(ue)) << b.value();
    const UeState* replica = h.system->cpf(b).peek_state(ue);
    ASSERT_NE(replica, nullptr);
    EXPECT_EQ(replica->last_completed_proc, 1u);
  }
  EXPECT_EQ(h.metrics.checkpoints_sent, 2u);
  EXPECT_EQ(h.metrics.checkpoint_acks, 2u);
}

TEST(Attach, LogIsPrunedAfterAllAcks) {
  Harness h(neutrino_policy());
  h.system->frontend().start_procedure(UeId{42}, ProcedureType::kAttach);
  h.run();
  EXPECT_GT(h.metrics.log_appends, 0u);
  EXPECT_EQ(h.metrics.log_prunes, 1u);
  EXPECT_EQ(h.system->cta(0).log_bytes(), 0u);
  EXPECT_EQ(h.system->cta(0).log_messages(), 0u);
}

TEST(Attach, NoReplicationUnderEpcPolicy) {
  Harness h(existing_epc_policy());
  h.system->frontend().start_procedure(UeId{42}, ProcedureType::kAttach);
  h.run();
  EXPECT_EQ(h.metrics.procedures_completed, 1u);
  EXPECT_EQ(h.metrics.checkpoints_sent, 0u);
  EXPECT_EQ(h.metrics.log_appends, 0u);
}

TEST(Attach, DpcmSkipsAuthRoundTrips) {
  Harness epc(existing_epc_policy());
  Harness dpcm(dpcm_policy());
  epc.system->frontend().start_procedure(UeId{1}, ProcedureType::kAttach);
  dpcm.system->frontend().start_procedure(UeId{1}, ProcedureType::kAttach);
  epc.run();
  dpcm.run();
  const double epc_pct = epc.metrics.pct_for(ProcedureType::kAttach).median();
  const double dpcm_pct =
      dpcm.metrics.pct_for(ProcedureType::kAttach).median();
  EXPECT_LT(dpcm_pct, epc_pct);  // two round trips elided
}

TEST(ServiceRequest, ServesPreattachedUe) {
  Harness h(neutrino_policy());
  const UeId ue{7};
  h.system->frontend().preattach(ue, 0);
  h.system->frontend().start_procedure(ue, ProcedureType::kServiceRequest);
  h.run();
  EXPECT_EQ(h.metrics.procedures_completed, 1u);
  EXPECT_EQ(h.metrics.ryw_violations, 0u);
  EXPECT_EQ(h.metrics.reattaches, 0u);
}

TEST(ServiceRequest, UnknownUeIsToldToReattach) {
  Harness h(neutrino_policy());
  const UeId ue{7};  // never attached: CPF has no state (§4.2.4 rule 3)
  h.system->frontend().start_procedure(ue, ProcedureType::kServiceRequest);
  h.run();
  EXPECT_GE(h.metrics.reattaches, 1u);
  EXPECT_EQ(h.metrics.procedures_completed, 1u);  // via Re-Attach
  EXPECT_TRUE(h.system->frontend().is_attached(ue));
  EXPECT_EQ(h.metrics.ryw_violations, 0u);
}

TEST(ServiceRequest, SequentialProceduresKeepRywAndPrune) {
  Harness h(neutrino_policy());
  const UeId ue{9};
  h.system->frontend().start_procedure(ue, ProcedureType::kAttach);
  h.run(SimTime::seconds(2));
  for (int i = 0; i < 5; ++i) {
    h.system->frontend().start_procedure(ue, ProcedureType::kServiceRequest);
    h.run(SimTime::seconds(3 + i));
  }
  EXPECT_EQ(h.metrics.procedures_completed, 6u);
  EXPECT_EQ(h.metrics.ryw_violations, 0u);
  EXPECT_EQ(h.system->cta(0).log_messages(), 0u);
}

struct MultiRegionHarness : Harness {
  MultiRegionHarness(CorePolicy policy)
      : Harness(policy, [] {
          TopologyConfig topo;
          topo.l2_regions = 1;
          topo.l1_per_l2 = 4;  // four level-1 regions in one level-2
          topo.cpfs_per_region = 5;
          return topo;
        }()) {}
};

TEST(Handover, IntraRegionNeedsNoCpfChange) {
  MultiRegionHarness h(neutrino_policy());
  const UeId ue{11};
  h.system->frontend().preattach(ue, 1);
  h.system->frontend().start_procedure(ue, ProcedureType::kIntraHandover, 1);
  h.run();
  EXPECT_EQ(h.metrics.procedures_completed, 1u);
  EXPECT_EQ(h.metrics.migrations, 0u);
  EXPECT_EQ(h.metrics.state_fetches, 0u);
  EXPECT_EQ(h.metrics.ryw_violations, 0u);
}

TEST(Handover, InterRegionProactiveAvoidsMigration) {
  MultiRegionHarness h(neutrino_policy());
  const UeId ue{11};
  h.system->frontend().preattach(ue, 1);
  h.system->frontend().start_procedure(ue, ProcedureType::kHandover, 2);
  h.run();
  EXPECT_EQ(h.metrics.procedures_completed, 1u);
  EXPECT_EQ(h.metrics.migrations, 0u);  // the point of §4.3
  EXPECT_EQ(h.metrics.ryw_violations, 0u);
  // Either the target CPF was already a replica (fast) or it fetched the
  // state from one within the level-2 region.
  EXPECT_GE(h.metrics.fast_handovers + h.metrics.state_fetches, 1u);
  EXPECT_EQ(h.system->frontend().region_of(ue), 2u);
}

TEST(Handover, InterRegionMigrationUnderEpcPolicy) {
  MultiRegionHarness h(existing_epc_policy());
  const UeId ue{11};
  h.system->frontend().preattach(ue, 1);
  h.system->frontend().start_procedure(ue, ProcedureType::kHandover, 2);
  h.run();
  EXPECT_EQ(h.metrics.procedures_completed, 1u);
  EXPECT_EQ(h.metrics.migrations, 1u);
  EXPECT_EQ(h.metrics.fast_handovers, 0u);
}

TEST(Handover, ProactiveBeatsMigrationOnPct) {
  MultiRegionHarness fast(neutrino_policy());
  auto slow_policy = neutrino_policy();
  slow_policy.handover = HandoverMode::kMigrate;
  MultiRegionHarness slow(slow_policy);
  const UeId ue{11};
  for (auto* h : {&fast, &slow}) {
    h->system->frontend().preattach(ue, 1);
    h->system->frontend().start_procedure(ue, ProcedureType::kHandover, 2);
    h->run();
  }
  ASSERT_EQ(fast.metrics.procedures_completed, 1u);
  ASSERT_EQ(slow.metrics.procedures_completed, 1u);
  EXPECT_LT(fast.metrics.pct_for(ProcedureType::kHandover).median(),
            slow.metrics.pct_for(ProcedureType::kHandover).median());
}

TEST(Handover, HandoverOutageIsRecorded) {
  MultiRegionHarness h(neutrino_policy());
  const UeId ue{11};
  h.system->frontend().preattach(ue, 1);
  h.system->frontend().watch_outages(ue);
  h.system->frontend().start_procedure(ue, ProcedureType::kHandover, 2);
  h.run();
  const auto& outages = h.system->frontend().outages(ue);
  ASSERT_EQ(outages.size(), 1u);
  EXPECT_GT((outages[0].end - outages[0].start).ns(), 0);
}

TEST(Frontend, OutagesOfUnwatchedUeAbortInEveryBuild) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  MultiRegionHarness h(neutrino_policy());
  const UeId ue{11};
  h.system->frontend().preattach(ue, 1);
  h.system->frontend().start_procedure(ue, ProcedureType::kHandover, 2);
  h.run();
  // An empty history would read as "no outage", i.e. no missed deadline.
  EXPECT_DEATH((void)h.system->frontend().outages(ue),
               "outages\\(\\) of UE 11, which nobody watched");
}

TEST(Frontend, WatchedUeRecordsEveryOutageKind) {
  sim::EventLoop loop;
  FixedCostModel costs{SimTime::microseconds(10)};
  Metrics metrics;
  TopologyConfig topo;
  topo.l1_per_l2 = 4;
  topo.cpfs_per_region = 5;
  ProtocolConfig proto;
  proto.ack_timeout = SimTime::milliseconds(500);
  proto.log_scan_interval = SimTime::milliseconds(100);
  // Crashes are noticed after the 500-ms coverage grace has run out.
  proto.failure_detection = SimTime::milliseconds(600);
  System system(loop, neutrino_policy(), topo, proto, costs, metrics);
  Frontend& fe = system.frontend();
  const UeId ue{11};  // homed in region 3
  const UeId bystander{12};
  fe.watch_outages(ue);
  const auto at = [&](SimTime when, auto fn) { loop.schedule_at(when, fn); };
  const auto ms = [](std::int64_t v) { return SimTime::milliseconds(v); };
  const auto crash_serving = [&](bool with_backups) {
    const std::uint32_t region = fe.region_of(ue);
    system.crash_cpf(system.cta(region).route(ue));
    if (!with_backups) return;
    for (const CpfId b : system.backups_for(ue, region)) system.crash_cpf(b);
  };
  // Attach, then an inter-region and an intra-region handover.
  at(ms(0), [&] { fe.start_procedure(ue, ProcedureType::kAttach); });
  at(ms(0), [&] { fe.start_procedure(bystander, ProcedureType::kAttach); });
  at(ms(1000), [&] { fe.start_procedure(ue, ProcedureType::kHandover, 0); });
  at(ms(2000),
     [&] { fe.start_procedure(ue, ProcedureType::kIntraHandover, 0); });
  // The serving CPF dies while it runs a handover: the coverage grace
  // expires before failover replays it, so the outage starts at 3.5 s.
  at(ms(3000), [&] { fe.start_procedure(ue, ProcedureType::kHandover, 1); });
  at(ms(3000) + SimTime::microseconds(20), [&] { crash_serving(false); });
  // Every replica dies: the next service request re-attaches.
  at(ms(5000), [&] { crash_serving(true); });
  at(ms(6000),
     [&] { fe.start_procedure(ue, ProcedureType::kServiceRequest); });
  loop.run_until(SimTime::seconds(10));

  EXPECT_EQ(metrics.procedures_completed, 6u);
  // One re-attach inside the failed-over handover, one after the crash.
  EXPECT_EQ(metrics.reattaches, 2u);
  EXPECT_EQ(metrics.ryw_violations, 0u);
  // Pinned from the build that kept every UE's history, to the
  // nanosecond: attach, inter-region handover (command to completion),
  // intra-region handover, expired grace to failover, re-attach.
  const std::vector<std::pair<std::int64_t, std::int64_t>> want = {
      {0, 146'950},
      {1'000'041'650, 1'000'925'300},
      {2'000'000'000, 2'000'063'650},
      {3'500'000'000, 3'602'546'950},
      {6'000'041'650, 6'000'188'600}};
  std::vector<std::pair<std::int64_t, std::int64_t>> got;
  for (const Frontend::Outage& o : fe.outages(ue)) {
    got.emplace_back(o.start.ns(), o.end.ns());
  }
  EXPECT_EQ(got, want);
  // The bystander was never watched and keeps no history.
  fe.watch_outages(bystander);
  EXPECT_TRUE(fe.outages(bystander).empty());
}

TEST(Load, ManyUesAcrossRegionsAllComplete) {
  MultiRegionHarness h(neutrino_policy());
  constexpr int kUes = 200;
  for (int i = 0; i < kUes; ++i) {
    h.system->frontend().start_procedure(UeId{static_cast<std::uint64_t>(i)},
                                         ProcedureType::kAttach);
  }
  h.run(SimTime::seconds(30));
  EXPECT_EQ(h.metrics.procedures_completed, static_cast<std::uint64_t>(kUes));
  EXPECT_EQ(h.metrics.ryw_violations, 0u);
  EXPECT_EQ(h.metrics.procedures_started, static_cast<std::uint64_t>(kUes));
}

TEST(SyncModes, PerMessageCostsMoreThanPerProcedure) {
  auto per_msg = skycore_policy();
  auto per_proc = neutrino_policy();
  per_proc.wire_format = per_msg.wire_format;  // isolate the sync axis
  per_proc.handover = per_msg.handover;

  double medians[2];
  int idx = 0;
  for (const auto& policy : {per_msg, per_proc}) {
    Harness h(policy);
    for (int i = 0; i < 100; ++i) {
      h.system->frontend().start_procedure(
          UeId{static_cast<std::uint64_t>(i)}, ProcedureType::kAttach);
    }
    h.run(SimTime::seconds(30));
    EXPECT_EQ(h.metrics.ryw_violations, 0u);
    medians[idx++] = h.metrics.pct_for(ProcedureType::kAttach).median();
  }
  EXPECT_GT(medians[0], medians[1]);  // Fig. 15's ordering
}

}  // namespace
}  // namespace neutrino::core
