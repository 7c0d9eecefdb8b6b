// System-level invariants: replica placement, log boundedness, and
// end-to-end determinism of the simulation.
#include <gtest/gtest.h>

#include "core/system.hpp"
#include "traffic/engine.hpp"

namespace neutrino::core {
namespace {

void replay(System& system, const std::vector<traffic::TraceRecord>& t) {
  std::vector<System::Arrival> arrivals;
  for (const auto& rec : t) arrivals.push_back(System::Arrival::of(rec));
  system.replay(std::move(arrivals));
}

struct Harness {
  explicit Harness(CorePolicy policy, TopologyConfig topo = {}) {
    proto.ack_timeout = SimTime::milliseconds(500);
    proto.log_scan_interval = SimTime::milliseconds(100);
    system =
        std::make_unique<System>(loop, policy, topo, proto, costs, metrics);
  }
  sim::EventLoop loop;
  FixedCostModel costs{SimTime::microseconds(10)};
  ProtocolConfig proto;
  Metrics metrics;
  std::unique_ptr<System> system;
};

TEST(Placement, BackupsLiveOutsideThePrimarysRegion) {
  // §4.3: replicas are taken from the level-2 ring, which excludes the
  // level-1 members — a region-wide failure cannot take out every copy.
  TopologyConfig topo;
  topo.l1_per_l2 = 4;
  Harness h(neutrino_policy(), topo);
  for (std::uint64_t u = 0; u < 500; ++u) {
    const UeId ue{u};
    const auto home = static_cast<std::uint32_t>(u % 4);
    const CpfId primary = h.system->primary_cpf_for(ue, home);
    EXPECT_EQ(topo.region_of_cpf(primary), home);
    const auto backups = h.system->backups_for(ue, home);
    ASSERT_EQ(backups.size(), 2u);
    for (const CpfId b : backups) {
      EXPECT_NE(topo.region_of_cpf(b), home) << "ue " << u;
      EXPECT_NE(b, primary);
    }
  }
}

TEST(Placement, SingleRegionFallbackExcludesPrimary) {
  Harness h(neutrino_policy());
  for (std::uint64_t u = 0; u < 500; ++u) {
    const UeId ue{u};
    const CpfId primary = h.system->primary_cpf_for(ue, 0);
    for (const CpfId b : h.system->backups_for(ue, 0)) {
      EXPECT_NE(b, primary) << "ue " << u;
    }
  }
}

TEST(Placement, StableAcrossSystemInstances) {
  // preattach() in one process run must agree with routing in another:
  // placement may depend only on ids and topology.
  TopologyConfig topo;
  topo.l1_per_l2 = 2;
  Harness a(neutrino_policy(), topo);
  Harness b(neutrino_policy(), topo);
  for (std::uint64_t u = 0; u < 200; ++u) {
    EXPECT_EQ(a.system->primary_cpf_for(UeId{u}, 1),
              b.system->primary_cpf_for(UeId{u}, 1));
    EXPECT_EQ(a.system->backups_for(UeId{u}, 1),
              b.system->backups_for(UeId{u}, 1));
  }
}

TEST(LogBoundedness, DrainedSystemHasEmptyLogs) {
  // §4.2.3: every fully-ACKed procedure is pruned; once the workload
  // drains, nothing may linger in any CTA log.
  TopologyConfig topo;
  topo.l1_per_l2 = 2;
  Harness h(neutrino_policy(), topo);
  const auto t = traffic::uniform(
      5'000.0, SimTime::milliseconds(500),
      {.service_request = 0.5, .handover = 0.2}, 2'000,
      topo.total_regions(), /*seed=*/11);
  for (std::uint64_t u = 0; u < 2'000; ++u) {
    h.system->frontend().preattach(UeId{u},
                                   static_cast<std::uint32_t>(u % 2));
  }
  replay(*h.system, t);
  h.loop.run_until(SimTime::seconds(30));

  EXPECT_EQ(h.metrics.ryw_violations, 0u);
  for (int r = 0; r < topo.total_regions(); ++r) {
    EXPECT_EQ(h.system->cta(static_cast<std::uint32_t>(r)).log_messages(), 0u)
        << "region " << r;
    EXPECT_EQ(h.system->cta(static_cast<std::uint32_t>(r)).log_bytes(), 0u);
  }
}

TEST(Determinism, IdenticalRunsProduceIdenticalMetrics) {
  auto run = [] {
    TopologyConfig topo;
    topo.l1_per_l2 = 2;
    Harness h(neutrino_policy(), topo);
    const auto t = traffic::uniform(
        8'000.0, SimTime::milliseconds(400),
        {.service_request = 0.6, .handover = 0.2}, 3'000,
        topo.total_regions(), /*seed=*/3);
    for (std::uint64_t u = 0; u < 3'000; ++u) {
      h.system->frontend().preattach(UeId{u},
                                     static_cast<std::uint32_t>(u % 2));
    }
    h.loop.schedule_at(SimTime::milliseconds(200),
                       [&] { h.system->crash_cpf(CpfId{3}); });
    replay(*h.system, t);
    h.loop.run_until(SimTime::seconds(20));
    return std::tuple{h.metrics.procedures_completed, h.metrics.reattaches,
                      h.metrics.replays, h.metrics.checkpoints_sent,
                      h.metrics.checkpoint_acks, h.metrics.log_appends,
                      h.metrics.log_prunes,
                      h.metrics.pct_for(ProcedureType::kServiceRequest)
                          .mean()};
  };
  EXPECT_EQ(run(), run());
}

TEST(Saturation, OfferedLoadBeyondCapacityStillCompletesEventually) {
  // Liveness under a finite overload burst: everything completes once the
  // arrivals stop, and consistency holds throughout.
  Harness h(neutrino_policy());
  replay(*h.system,
         traffic::wave(5'000, ProcedureType::kAttach, SimTime{},
                       SimTime::milliseconds(10), /*seed=*/5));
  h.loop.run_until(SimTime::seconds(120));
  EXPECT_EQ(h.metrics.procedures_completed, 5'000u);
  EXPECT_EQ(h.metrics.ryw_violations, 0u);
  EXPECT_TRUE(h.loop.empty());
}

}  // namespace
}  // namespace neutrino::core
