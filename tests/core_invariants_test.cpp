// System-level invariants: replica placement, log boundedness, and
// end-to-end determinism of the simulation.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/sharded_system.hpp"
#include "core/system.hpp"
#include "geo/hash_ring.hpp"
#include "obs/throughput.hpp"
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

/// Placement as each CTA computed it from its own two rings: a level-1
/// ring over the home region's member CPFs and a level-2 ring over the
/// members of the *other* level-1 regions of its level-2 region, with the
/// primary's level-1 successors as backups when that ring is empty.
class ReferencePlacement {
 public:
  ReferencePlacement(const TopologyConfig& topo,
                     const std::vector<bool>& member, std::uint32_t home) {
    for (int i = 0; i < topo.total_cpfs(); ++i) {
      const CpfId c{static_cast<std::uint32_t>(i)};
      if (!member[c.value()]) continue;
      const std::uint32_t r = topo.region_of_cpf(c);
      if (r == home) {
        level1_.add(c, seed(c));
      } else if (topo.l2_of(r) == topo.l2_of(home)) {
        level2_.add(c, seed(c));
      }
    }
  }

  [[nodiscard]] CpfId primary(UeId ue) const {
    return level1_.lookup(System::ue_key(ue));
  }
  [[nodiscard]] std::vector<CpfId> backups(UeId ue, std::size_t n) const {
    if (!level2_.empty()) return level2_.successors(System::ue_key(ue), n);
    auto chain = level1_.successors(System::ue_key(ue), n + 1);
    chain.erase(chain.begin());
    return chain;
  }

 private:
  static std::uint64_t seed(CpfId c) { return 0x5a5a0000ULL + c.value(); }

  geo::ConsistentHashRing<CpfId> level1_;
  geo::ConsistentHashRing<CpfId> level2_;
};

TEST(Placement, SystemRingsMatchPerRegionReferenceThroughChurn) {
  // (l2 regions, l1 regions per l2): the one-region fallback, one level-2
  // region of 4 and of 16, and two multi-l2 shapes.
  const std::vector<std::pair<int, int>> shapes{
      {1, 1}, {1, 4}, {4, 4}, {1, 16}, {2, 8}};
  for (const auto& [l2, l1] : shapes) {
    for (int n = 1; n <= 3; ++n) {
      TopologyConfig topo;
      topo.l2_regions = l2;
      topo.l1_per_l2 = l1;
      CorePolicy policy = neutrino_policy();
      policy.num_backups = n;
      Harness h(policy, topo);
      System& sys = *h.system;
      std::vector<bool> member(static_cast<std::size_t>(topo.total_cpfs()),
                               true);
      const auto compare = [&](const char* phase) {
        for (std::uint32_t r = 0;
             r < static_cast<std::uint32_t>(topo.total_regions()); ++r) {
          const ReferencePlacement ref(topo, member, r);
          for (std::uint64_t u = 0; u < 64; ++u) {
            const UeId ue{u};
            ASSERT_EQ(sys.hashed_primary_for(ue, r), ref.primary(ue))
                << l2 << "x" << l1 << " n=" << n << " " << phase
                << " region " << r << " ue " << u;
            ASSERT_EQ(sys.backups_for(ue, r),
                      ref.backups(ue, static_cast<std::size_t>(n)))
                << l2 << "x" << l1 << " n=" << n << " " << phase
                << " region " << r << " ue " << u;
          }
        }
      };
      ASSERT_NO_FATAL_FAILURE(compare("before churn"));
      // Seeded drains and scale-outs; a drain of a region's last member
      // is refused, so the reference refuses it too.
      Rng rng(static_cast<std::uint64_t>(97 * l2 + l1));
      for (int op = 0; op < 3 * topo.total_regions() + 6; ++op) {
        const CpfId c{static_cast<std::uint32_t>(
            rng.next_below(static_cast<std::uint64_t>(topo.total_cpfs())))};
        const std::uint32_t r = topo.region_of_cpf(c);
        if (member[c.value()]) {
          int members = 0;
          for (int i = 0; i < topo.cpfs_per_region; ++i) {
            members += member[topo.cpf_at(r, i).value()] ? 1 : 0;
          }
          if (members > 1) member[c.value()] = false;
          sys.drain_cpf(c);
        } else {
          member[c.value()] = true;
          sys.scale_out_cpf(c);
        }
        ASSERT_EQ(sys.cpf_in_ring(c), member[c.value()]) << "op " << op;
      }
      ASSERT_NO_FATAL_FAILURE(compare("after churn"));
    }
  }
}

TEST(Placement, ShardedConstructionHoldsRingsOncePerSystem) {
  // Every shard's System holds one level-1 ring per region and one level-2
  // ring per level-2 region. A level-2 ring per CTA instead would add about
  // 1 MB per shard here and break the bound. mallinfo2 can read 0 under
  // sanitizers, so the plain build is the one that checks it.
  ShardedSystem::Config cfg;
  cfg.policy = neutrino_policy();
  cfg.topo.l1_per_l2 = 16;
  cfg.shards = 16;
  const FixedCostModel costs{SimTime::microseconds(10)};
  const std::size_t before = obs::heap_in_use_bytes();
  const auto sys = std::make_unique<ShardedSystem>(cfg, costs);
  const std::size_t after = obs::heap_in_use_bytes();
  ASSERT_EQ(sys->shards(), 16u);
  EXPECT_LT(after - before, std::size_t{6} << 20)
      << (after - before) << " bytes of live heap";
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
