// City-scale mobility engine (DESIGN.md §18): trajectory determinism,
// crossing→record correctness against hand-computed geometry, ping-pong
// hysteresis, the rate-vs-density validation (arXiv 1607.06439 with the
// finite-block correction), shard-block confinement, the scenario/overlay
// wiring, and bitwise determinism of a commuter-crossing replay across
// worker-thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/sharded_system.hpp"
#include "geo/region_plan.hpp"
#include "traffic/mobility.hpp"
#include "traffic/scenario.hpp"

namespace neutrino::traffic {
namespace {

// ---------------------------------------------------------------------------
// Grid geometry
// ---------------------------------------------------------------------------

TEST(MobilityGrid, MakeAcceptsOnlyPowerOfFourGrids) {
  EXPECT_EQ(MobilityGrid::make(16, 1000.0).dim, 4u);
  EXPECT_EQ(MobilityGrid::make(64, 1000.0).dim, 8u);
  EXPECT_EQ(MobilityGrid::make(4, 1000.0).dim, 2u);
  EXPECT_EQ(MobilityGrid::make(1, 1000.0).dim, 0u);
  EXPECT_EQ(MobilityGrid::make(8, 1000.0).dim, 0u);
  EXPECT_EQ(MobilityGrid::make(12, 1000.0).dim, 0u);
}

TEST(MobilityGrid, MortonRoundTripCoversGrid) {
  const MobilityGrid g = MobilityGrid::make(64, 500.0);
  std::set<std::uint32_t> seen;
  for (std::uint32_t row = 0; row < g.dim; ++row) {
    for (std::uint32_t col = 0; col < g.dim; ++col) {
      const std::uint32_t idx = g.index_of(row, col);
      EXPECT_LT(idx, 64u);
      seen.insert(idx);
      std::uint32_t r = 0, c = 0;
      g.cell_of(idx, r, c);
      EXPECT_EQ(r, row);
      EXPECT_EQ(c, col);
    }
  }
  EXPECT_EQ(seen.size(), 64u);
}

// The tentpole's coordinate contract: the Morton grid's region indices are
// exactly RegionPlan::from_area's lexicographic geohash indices, so
// trajectories, the topology's l2_of(i) == i/4 grouping and the sharded
// runtime's contiguous blocks all describe the same geography.
TEST(MobilityGrid, MortonIndicesMatchRegionPlan) {
  const geo::GeoCell area = geo::geohash_decode("01");
  const geo::RegionPlan plan = geo::RegionPlan::from_area(area, 4);
  ASSERT_EQ(plan.regions().size(), 16u);
  const MobilityGrid grid = MobilityGrid::make(16, 1000.0);
  for (const geo::PlannedRegion& r : plan.regions()) {
    const double dlat = r.cell.lat_hi - r.cell.lat_lo;
    const double dlon = r.cell.lon_hi - r.cell.lon_lo;
    const auto row = static_cast<std::uint32_t>(
        std::lround((r.cell.lat_lo - area.lat_lo) / dlat));
    const auto col = static_cast<std::uint32_t>(
        std::lround((r.cell.lon_lo - area.lon_lo) / dlon));
    EXPECT_EQ(grid.index_of(row, col), r.region_index) << r.geohash;
  }
}

// ---------------------------------------------------------------------------
// Walker: crossing geometry, hysteresis, ping-pong
// ---------------------------------------------------------------------------

struct WalkerHarness {
  MobilityGrid grid = MobilityGrid::make(16, 1000.0);
  std::vector<TraceRecord> records;
  detail::MobilityWalker walker;
  explicit WalkerHarness(double h, double duration_s = 1000.0,
                         double pingpong_s = 20.0)
      : walker(grid, h, duration_s, pingpong_s, UeId{7}, records) {}
};

TEST(MobilityWalker, StraightEastLegEmitsHysteresisShiftedCrossings) {
  WalkerHarness hz(/*h=*/25.0);
  hz.walker.start_at(500.0, 500.0);
  hz.walker.leg_to(3500.0, 500.0, /*v=*/10.0, /*t0=*/0.0);
  ASSERT_EQ(hz.records.size(), 3u);
  // Crossing fires at penetration h into the neighbor (A3 offset): x =
  // 1025, 2025, 3025 at 10 m/s. Morton targets for row 0: col 1 -> 2,
  // col 2 -> 8, col 3 -> 10.
  const std::uint32_t targets[3] = {2, 8, 10};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(hz.records[i].target_region, targets[i]) << i;
    EXPECT_EQ(hz.records[i].type, core::ProcedureType::kHandover);
    EXPECT_EQ(hz.records[i].ue, UeId{7});
    const double expect_s = (1000.0 * (i + 1) + 25.0 - 500.0) / 10.0;
    EXPECT_NEAR(hz.records[i].at.sec(), expect_s, 1e-6) << i;
  }
  EXPECT_EQ(hz.walker.crossings(), 3u);
  EXPECT_EQ(hz.walker.pingpongs(), 0u);
}

TEST(MobilityWalker, ShallowExcursionAbsorbedByHysteresis) {
  WalkerHarness hz(/*h=*/25.0);
  hz.walker.start_at(500.0, 500.0);
  // Peaks 15 m past the boundary: inside the 25 m band, no handover.
  double t = hz.walker.leg_to(1015.0, 500.0, 100.0, 0.0);
  hz.walker.leg_to(500.0, 500.0, 100.0, t);
  EXPECT_EQ(hz.walker.crossings(), 0u);
  EXPECT_TRUE(hz.records.empty());
}

TEST(MobilityWalker, DeepExcursionMakesAPingpongPair) {
  WalkerHarness hz(/*h=*/25.0);
  hz.walker.start_at(500.0, 500.0);
  double t = hz.walker.leg_to(1100.0, 500.0, 100.0, 0.0);
  hz.walker.leg_to(500.0, 500.0, 100.0, t);
  ASSERT_EQ(hz.records.size(), 2u);
  EXPECT_EQ(hz.records[0].target_region, 2u);  // out into (row 0, col 1)
  EXPECT_EQ(hz.records[1].target_region, 0u);  // and back within the window
  EXPECT_EQ(hz.walker.pingpongs(), 1u);
}

TEST(MobilityWalker, ReturnOutsideWindowIsNotAPingpong) {
  // Same round trip at walking pace: the return lands > 20 s after the
  // outbound crossing, outside the 3GPP time-of-stay window.
  WalkerHarness hz(/*h=*/25.0, /*duration_s=*/10000.0, /*pingpong_s=*/20.0);
  hz.walker.start_at(500.0, 500.0);
  double t = hz.walker.leg_to(1100.0, 500.0, 1.4, 0.0);
  hz.walker.leg_to(500.0, 500.0, 1.4, t);
  EXPECT_EQ(hz.walker.crossings(), 2u);
  EXPECT_EQ(hz.walker.pingpongs(), 0u);
}

// ---------------------------------------------------------------------------
// Stream generation: determinism, confinement, rate validation
// ---------------------------------------------------------------------------

MobilityConfig small_config() {
  MobilityConfig m;
  m.regions = 16;
  m.shard_blocks = 2;
  m.population = 2'000;
  m.duration = SimTime::seconds(120);
  m.seed = 5;
  return m;
}

TEST(MobilityStream, DeterministicAndSeedSensitive) {
  const MobilityTraffic a = generate_mobility(small_config());
  const MobilityTraffic b = generate_mobility(small_config());
  ASSERT_FALSE(a.records.empty());
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].at, b.records[i].at) << i;
    EXPECT_EQ(a.records[i].ue, b.records[i].ue) << i;
    EXPECT_EQ(a.records[i].target_region, b.records[i].target_region) << i;
  }
  EXPECT_TRUE(std::is_sorted(a.records.begin(), a.records.end(),
                             record_before));
  MobilityConfig other = small_config();
  other.seed = 6;
  const MobilityTraffic c = generate_mobility(other);
  EXPECT_TRUE(c.records.size() != a.records.size() ||
              !std::equal(a.records.begin(), a.records.end(),
                          c.records.begin(),
                          [](const TraceRecord& x,
                             const TraceRecord& y) {
                            return x.at == y.at && x.ue == y.ue &&
                                   x.target_region == y.target_region;
                          }));
}

TEST(MobilityStream, TrajectoriesConfinedToShardBlocks) {
  const MobilityTraffic t = generate_mobility(small_config());
  ASSERT_FALSE(t.records.empty());
  for (const TraceRecord& rec : t.records) {
    const std::uint32_t home =
        static_cast<std::uint32_t>(rec.ue.value() % 16);
    EXPECT_EQ(home / 8, rec.target_region / 8)
        << "ue " << rec.ue.value() << " crossed its shard block";
    EXPECT_EQ(rec.type, core::ProcedureType::kHandover);
  }
}

TEST(MobilityStream, NonPowerOfFourGridYieldsEmptyStream) {
  MobilityConfig m = small_config();
  m.regions = 12;
  const MobilityTraffic t = generate_mobility(m);
  EXPECT_TRUE(t.records.empty());
  EXPECT_EQ(t.stats.moving_ues, 0u);
}

TEST(MobilityStream, MeasuredRateMatchesCorrectedClosedForm) {
  // The headline validation (DESIGN.md §18): over a 2x4 km shard block the
  // vehicular class's measured crossing rate must land within the
  // documented 10% of (4/pi) v/L times the analytic finite-block
  // correction. 120 s at 20k UEs is already deep inside the regime.
  MobilityConfig m;
  m.regions = 16;
  m.shard_blocks = 2;
  m.population = 20'000;
  m.duration = SimTime::seconds(120);
  m.oscillator_fraction = 0.0;
  const MobilityTraffic t = generate_mobility(m);
  ASSERT_EQ(t.stats.classes.size(), 3u);
  const MobilityClassStats& veh = t.stats.classes[1];
  EXPECT_EQ(veh.name, "vehicular");
  ASSERT_TRUE(veh.validate_rate) << "vehicular run left the regime";
  EXPECT_GT(t.stats.block_correction, 0.5);
  EXPECT_LT(t.stats.block_correction, 1.0);
  EXPECT_LE(t.stats.worst_rate_deviation(), 0.10)
      << "measured " << veh.measured_rate_hz() << " vs corrected "
      << veh.predicted_rate_hz * t.stats.block_correction;
  // Pedestrians average barely one walked leg in 120 s — the convergence
  // gate must keep them out of the check instead of failing it.
  EXPECT_FALSE(t.stats.classes[0].validate_rate);
}

TEST(MobilityStream, OscillatorsPingpongAndGetSuppressed) {
  MobilityConfig m = small_config();
  m.oscillator_fraction = 1.0;
  m.duration = SimTime::seconds(60);
  const MobilityTraffic t = generate_mobility(m);
  EXPECT_GT(t.stats.pingpong_pairs, 0u);
  EXPECT_GT(t.stats.suppressed_excursions, 0u);
  EXPECT_EQ(t.stats.classes[2].ues, t.stats.moving_ues);
  EXPECT_FALSE(t.stats.classes[2].validate_rate);
}

// ---------------------------------------------------------------------------
// Scenario library wiring
// ---------------------------------------------------------------------------

ScenarioRequest scenario_request() {
  ScenarioRequest req;
  req.target_pps = 400.0;
  req.duration = SimTime::seconds(20);
  req.population = 1'000;
  req.regions = 16;
  req.shard_blocks = 2;
  req.seed = 9;
  return req;
}

TEST(MobilityScenario, CommuterCrossingMergesMovementIntoBackground) {
  MobilityStats stats;
  const auto gen =
      generate_scenario("commuter-crossing", scenario_request(), &stats);
  ASSERT_TRUE(gen.has_value());
  ASSERT_FALSE(gen->records.empty());
  EXPECT_TRUE(std::is_sorted(gen->records.begin(), gen->records.end(),
                             record_before));
  EXPECT_GT(stats.moving_ues, 0u);
  EXPECT_GT(stats.crossings, 0u);
  const auto mobility_class = std::find_if(
      gen->per_class.begin(), gen->per_class.end(),
      [](const ClassArrivals& c) { return c.name == "mobility"; });
  ASSERT_NE(mobility_class, gen->per_class.end());
  EXPECT_EQ(mobility_class->count, stats.crossings);
  const auto handovers = std::count_if(
      gen->records.begin(), gen->records.end(),
      [](const TraceRecord& r) {
        return r.type == core::ProcedureType::kHandover;
      });
  EXPECT_GE(static_cast<std::uint64_t>(handovers), stats.crossings);
}

TEST(MobilityScenario, EdgePingpongProducesPingpongPairs) {
  MobilityStats stats;
  const auto gen =
      generate_scenario("edge-pingpong", scenario_request(), &stats);
  ASSERT_TRUE(gen.has_value());
  EXPECT_GT(stats.pingpong_pairs, 0u);
  EXPECT_GT(stats.suppressed_excursions, 0u);
}

TEST(MobilityScenario, OverlayRidesOnNamedScenarioOnlyOnValidGrids) {
  ScenarioRequest req = scenario_request();
  req.mobility_overlay = true;
  MobilityStats stats;
  const auto with = generate_scenario("commuter-morning", req, &stats);
  ASSERT_TRUE(with.has_value());
  EXPECT_GT(stats.moving_ues, 0u);
  EXPECT_LE(stats.moving_ues, req.population / 5 + 1);  // the 20% slice
  const bool has_mobility_class =
      std::any_of(with->per_class.begin(), with->per_class.end(),
                  [](const ClassArrivals& c) { return c.name == "mobility"; });
  EXPECT_TRUE(has_mobility_class);

  // A 6-region topology has no 4^k grid: the overlay must quietly leave
  // the base scenario unchanged rather than emit illegal targets.
  req.regions = 6;
  MobilityStats none;
  const auto flat = generate_scenario("commuter-morning", req, &none);
  ASSERT_TRUE(flat.has_value());
  EXPECT_EQ(none.moving_ues, 0u);
  EXPECT_FALSE(
      std::any_of(flat->per_class.begin(), flat->per_class.end(),
                  [](const ClassArrivals& c) { return c.name == "mobility"; }));
}

// ---------------------------------------------------------------------------
// Replay determinism: commuter-crossing through the sharded runtime must
// not observe the worker-thread count (ISSUE acceptance: threads 1/2/4/8).
// ---------------------------------------------------------------------------

struct ReplayResult {
  core::Metrics metrics;
  std::uint64_t events = 0;
};

ReplayResult replay_commuter_crossing(std::uint32_t threads) {
  ScenarioRequest req = scenario_request();
  const auto gen = generate_scenario("commuter-crossing", req);
  EXPECT_TRUE(gen.has_value());

  const core::FixedCostModel costs{SimTime::microseconds(10)};
  core::ShardedSystem::Config cfg;
  cfg.policy = core::neutrino_policy();
  cfg.topo.l2_regions = 4;
  cfg.topo.l1_per_l2 = 4;
  cfg.shards = 2;
  cfg.threads = threads;
  core::ShardedSystem sys(cfg, costs);
  for (std::uint64_t ue = 0; ue < req.population; ++ue) {
    sys.preattach(UeId(ue), static_cast<std::uint32_t>(ue % 16));
  }
  sys.replay(gen->records);
  sys.run_until(req.duration + SimTime::seconds(2));
  return {sys.merged_metrics(), sys.events_executed()};
}

TEST(MobilityScenario, CommuterCrossingReplayIdenticalAcrossThreads) {
  const ReplayResult t1 = replay_commuter_crossing(1);
  EXPECT_GT(t1.metrics.procedures_completed, 0u);
  EXPECT_GT(t1.metrics.fast_handovers + t1.metrics.state_fetches, 0u);
  EXPECT_EQ(t1.metrics.ryw_violations, 0u);
  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    const ReplayResult tn = replay_commuter_crossing(threads);
    EXPECT_EQ(t1.events, tn.events) << threads << " threads";
    t1.metrics.registry.for_each_counter(
        [&](const std::string& key, const obs::Counter& counter) {
          const obs::Counter* other = tn.metrics.registry.find_counter(key);
          ASSERT_NE(other, nullptr) << key << " @ " << threads;
          EXPECT_EQ(counter.value(), other->value())
              << key << " @ " << threads << " threads";
        });
  }
}

}  // namespace
}  // namespace neutrino::traffic
