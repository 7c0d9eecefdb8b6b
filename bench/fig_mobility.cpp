// fig_mobility: FastHandover PCT tails under city-scale mobility
// (DESIGN.md §18).
//
// The paper's handover evaluation (§6.3, Fig. 11) measures FastHandover
// against a stationary mix; this bench drives the *movement* that
// actually produces inter-region handovers. A 16-region (4x4 geohash
// grid) metro runs the commuter-crossing scenario — >= 100k moving UEs
// whose commute wave collides with CPF crash windows timed inside the
// wave — on the sharded runtime across worker-thread counts {1,2,4,8}:
//
//  * FastHandover PCT tails (p50/p95/p99) with the fast/slow path split
//    (core.fast_handovers vs core.state_fetches: crossings into a
//    crashed-and-restored CPF must park in pending_handover_ and fetch);
//  * the measured boundary-crossing rate against the arXiv 1607.06439
//    closed form (4/pi)v/L times the analytic finite-block correction,
//    within the documented 10% tolerance;
//  * ping-pong accounting from the edge-pingpong scenario (hysteresis
//    suppression vs emitted A->B->A pairs);
//  * zero RYW violations with mobility and chaos active, and bit-identical
//    counters/PCT across every worker-thread count (the ISSUE acceptance
//    gate — the bench exits non-zero on any miss).
//
//   --ues=N          moving population (default 100k; --smoke 5k)
//   --threads=a,b,c  worker-thread sweep (default 1,2,4,8)
//   --shards=N       shard count AND mobility confinement blocks (default 2)
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"

using namespace neutrino;

namespace {

/// Crash/restore windows colliding with the commute wave: the primary
/// CPFs (for UE 0) of two regions per shard half go down as departures
/// peak and come back empty mid-wave, so post-restore crossings into
/// them deterministically take the slow StateFetch path.
struct ChaosPlan {
  std::vector<std::pair<std::uint32_t, CpfId>> doomed;  // (region, cpf)
  SimTime crash_at;
  SimTime restore_at;
};

ChaosPlan plan_chaos(core::ShardedSystem& sys, std::uint32_t regions,
                     SimTime duration) {
  ChaosPlan plan;
  plan.crash_at = SimTime::nanoseconds(duration.ns() / 5);          // 0.20
  plan.restore_at = SimTime::nanoseconds(duration.ns() * 7 / 20);   // 0.35
  for (const std::uint32_t region :
       {0u, 1u, regions / 2, regions / 2 + 1}) {
    core::System& owner = sys.system(sys.shard_of_region(region));
    plan.doomed.emplace_back(region,
                             owner.primary_cpf_for(UeId{0}, region));
  }
  return plan;
}

struct RunOut {
  bench::ExperimentResult result;
  LatencyRecorder handover_pct;
};

/// One sharded replay of a generated scenario with the chaos plan armed.
RunOut run_replay(const core::TopologyConfig& topo,
                  const std::vector<traffic::TraceRecord>& records,
                  std::uint64_t population, std::uint32_t shards,
                  std::uint32_t threads, SimTime duration, bool with_chaos,
                  SimTime telemetry_window) {
  bench::ExperimentConfig cfg;
  cfg.policy = core::neutrino_policy();
  cfg.topo = topo;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.preattached_ues = population;
  cfg.drain = SimTime::seconds(10);
  cfg.telemetry_window = telemetry_window;
  RunOut out{bench::run_experiment(
                 cfg, records,
                 [&](core::ShardedSystem& sys) {
                   if (!with_chaos) return;
                   const ChaosPlan plan = plan_chaos(
                       sys, static_cast<std::uint32_t>(topo.total_regions()),
                       duration);
                   for (const auto& [region, cpf] : plan.doomed) {
                     (void)region;
                     sys.schedule_crash(plan.crash_at, cpf);
                     sys.schedule_restore(plan.restore_at, cpf);
                   }
                 }),
             LatencyRecorder{}};
  out.handover_pct.merge(
      out.result.metrics.pct_for(core::ProcedureType::kHandover));
  return out;
}

obs::Json mobility_json(const traffic::MobilityStats& stats,
                        double tolerance) {
  obs::Json m;
  m["moving_ues"] = stats.moving_ues;
  m["crossings"] = stats.crossings;
  m["pingpong_pairs"] = stats.pingpong_pairs;
  m["suppressed_excursions"] = stats.suppressed_excursions;
  m["cell_pitch_m"] = stats.cell_pitch_m;
  m["hysteresis_m"] = stats.hysteresis_m;
  m["pingpong_window_s"] = stats.pingpong_window_s;
  m["block_correction"] = stats.block_correction;
  m["expected_leg_m"] = stats.expected_leg_m;
  m["rate_tolerance"] = tolerance;
  m["worst_rate_deviation"] = stats.worst_rate_deviation();
  bool any_validated = false;
  obs::Json& classes = m["classes"];
  classes.make_array();
  for (const traffic::MobilityClassStats& c : stats.classes) {
    obs::Json& row = classes.push_back(obs::Json{});
    row["name"] = c.name;
    row["ues"] = c.ues;
    row["crossings"] = c.crossings;
    row["mean_leg_m"] = c.mean_leg_m();
    row["measured_rate_hz"] = c.measured_rate_hz();
    row["predicted_rate_hz"] = c.predicted_rate_hz;
    row["validate"] = c.validate_rate;
    any_validated = any_validated || c.validate_rate;
  }
  m["rate_validated"] = any_validated;
  return m;
}

/// Everything a deterministic run computes, flattened for cross-thread
/// comparison (wall clock and rates excluded by construction).
std::map<std::string, std::uint64_t> fingerprint(const RunOut& run) {
  std::map<std::string, std::uint64_t> fp;
  fp["events"] = run.result.events_executed;
  fp["windows"] = run.result.windows;
  fp["cross_messages"] = run.result.cross_shard_messages;
  run.result.metrics.registry.for_each_counter(
      [&](const std::string& key, const obs::Counter& c) {
        fp["counter." + key] = c.value();
      });
  const auto s = run.handover_pct.summary();
  fp["ho.n"] = s.count;
  // Bit patterns, not values: the determinism claim is exact.
  auto bits = [](double v) {
    std::uint64_t u = 0;
    static_assert(sizeof(u) == sizeof(v));
    std::memcpy(&u, &v, sizeof(u));
    return u;
  };
  fp["ho.mean"] = bits(s.mean);
  fp["ho.p50"] = bits(s.p50);
  fp["ho.p99"] = bits(s.p99);
  fp["ho.max"] = bits(s.max);
  return fp;
}

void fill_row(obs::Json& row, const char* scenario, std::uint32_t threads,
              const RunOut& run, const traffic::GeneratedTraffic& gen,
              SimTime duration) {
  row["x"] = threads;
  row["scenario"] = scenario;
  bench::attach_arrivals(row, gen, duration);
  obs::Json pct = obs::summary_json(run.handover_pct);
  // "n" alongside summary_json's "count": opts the summary into the
  // validator's monotone-percentile check (and the summarizer reads it).
  pct["n"] = run.handover_pct.count();
  if (!run.handover_pct.empty()) {
    pct["p95"] = run.handover_pct.percentile(0.95);
  } else {
    pct["p95"] = 0.0;
  }
  row["handover_pct_ms"] = std::move(pct);
  row["events_per_sec"] =
      run.result.wall_seconds > 0
          ? static_cast<double>(run.result.events_executed) /
                run.result.wall_seconds
          : 0.0;
  row["wall_seconds"] = run.result.wall_seconds;
  row["events_executed"] = run.result.events_executed;
  bench::Report::attach_result(row, run.result);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report(
      argc, argv, "fig_mobility",
      "FastHandover PCT tails under city-scale mobility + crash collisions",
      "proactive replication keeps handover PCT low (§4.3); crossings into "
      "crashed-and-restored CPFs take the consistent slow path with zero "
      "RYW violations");
  const bench::BenchOptions& opts = report.options();

  core::TopologyConfig topo;
  topo.l2_regions = 4;
  topo.l1_per_l2 = 4;  // 4x4 geohash grid, 4 regions per level-2 quad
  const auto regions = static_cast<std::uint32_t>(topo.total_regions());
  const std::uint32_t shards = opts.shards != 0 ? opts.shards : 2;
  std::vector<std::uint32_t> threads = opts.threads;
  if (threads.empty()) threads = {1, 2, 4, 8};

  const std::uint64_t population =
      opts.ues != 0 ? opts.ues : (report.smoke() ? 5'000 : 100'000);
  const SimTime duration =
      report.smoke() ? SimTime::seconds(30) : SimTime::seconds(120);
  constexpr double kRateTolerance = 0.10;  // DESIGN.md §18

  traffic::ScenarioRequest req;
  req.target_pps = report.smoke() ? 300.0 : 2'000.0;
  req.duration = duration;
  req.population = population;
  req.regions = static_cast<int>(regions);
  req.seed = 29;
  req.shard_blocks = shards;  // confinement == the runtime's partition

  traffic::MobilityStats stats;
  const auto gen =
      traffic::generate_scenario("commuter-crossing", req, &stats);
  bench::echo_scenario_config(report.config(),
                              *traffic::find_scenario("commuter-crossing"),
                              req);
  report.config()["shards"] = shards;
  report.config()["mobility"] = mobility_json(stats, kRateTolerance);

  bool ok = true;

  // --- Rate-vs-density validation (generation-side; replay-independent).
  const double worst_dev = stats.worst_rate_deviation();
  bool any_validated = false;
  for (const auto& c : stats.classes) any_validated |= c.validate_rate;
  std::printf("# mobility: %" PRIu64 " moving UEs, %" PRIu64
              " crossings, kappa=%.4f, worst rate deviation %.4f "
              "(tolerance %.2f)\n",
              stats.moving_ues, stats.crossings, stats.block_correction,
              worst_dev, kRateTolerance);
  for (const auto& c : stats.classes) {
    std::printf("#   %-16s ues=%-8" PRIu64 " crossings=%-8" PRIu64
                " measured=%.6fHz predicted=%.6fHz%s\n",
                c.name.c_str(), c.ues, c.crossings, c.measured_rate_hz(),
                c.predicted_rate_hz * stats.block_correction,
                c.validate_rate ? "  [validated]" : "");
  }
  if (worst_dev > kRateTolerance) {
    std::fprintf(stderr,
                 "fig_mobility: FAILED rate check: deviation %.4f > %.2f\n",
                 worst_dev, kRateTolerance);
    ok = false;
  }
  if (!report.smoke() && !any_validated) {
    std::fprintf(stderr,
                 "fig_mobility: FAILED: no class entered the rate check's "
                 "regime at full scale\n");
    ok = false;
  }

  // --- The thread sweep: commute wave + chaos collisions, bit-identical
  // outcomes regardless of worker count.
  std::map<std::string, std::uint64_t> reference;
  std::uint32_t reference_threads = 0;
  for (const std::uint32_t t : threads) {
    RunOut run = run_replay(topo, gen->records, population, shards, t,
                            duration, /*with_chaos=*/true,
                            opts.telemetry_window());
    const auto& m = run.result.metrics;
    const LatencyRecorder& pct = run.handover_pct;
    std::printf(
        "fig_mobility\tcommuter-crossing\t%u\tn=%zu\tp50=%.3f\tp95=%.3f\t"
        "p99=%.3f\tfast=%" PRIu64 "\tfetch=%" PRIu64 "\treattach=%" PRIu64
        "\tryw=%" PRIu64 "\n",
        t, pct.count(), pct.empty() ? 0.0 : pct.percentile(0.50),
        pct.empty() ? 0.0 : pct.percentile(0.95),
        pct.empty() ? 0.0 : pct.percentile(0.99), m.fast_handovers.value(),
        m.state_fetches.value(), m.reattaches.value(),
        m.ryw_violations.value());
    obs::Json& row = report.new_row("commuter-crossing");
    fill_row(row, "commuter-crossing", t, run, *gen, duration);

    if (m.ryw_violations.value() != 0) {
      std::fprintf(stderr,
                   "fig_mobility: FAILED: %" PRIu64
                   " RYW violations at threads=%u\n",
                   m.ryw_violations.value(), t);
      ok = false;
    }
    if (m.fast_handovers.value() + m.state_fetches.value() == 0) {
      std::fprintf(stderr,
                   "fig_mobility: FAILED: no inter-region handovers "
                   "completed at threads=%u\n",
                   t);
      ok = false;
    }
    if (m.state_fetches.value() == 0) {
      std::fprintf(stderr,
                   "fig_mobility: FAILED: chaos collision never forced the "
                   "slow StateFetch path at threads=%u\n",
                   t);
      ok = false;
    }
    const auto fp = fingerprint(run);
    if (reference.empty()) {
      reference = fp;
      reference_threads = t;
    } else if (fp != reference) {
      for (const auto& [key, value] : fp) {
        const auto it = reference.find(key);
        if (it == reference.end() || it->second != value) {
          std::fprintf(stderr,
                       "fig_mobility: FAILED: %s differs at threads=%u vs "
                       "threads=%u\n",
                       key.c_str(), t, reference_threads);
        }
      }
      ok = false;
    }
  }

  // --- Ping-pong edges: the oscillator scenario at reduced scale, one
  // deterministic replay (thread invariance is already pinned above and
  // in tests/mobility_test.cpp).
  {
    traffic::ScenarioRequest preq = req;
    preq.population = std::max<std::uint64_t>(
        1'000, std::min<std::uint64_t>(population / 10, 10'000));
    preq.duration = report.smoke() ? SimTime::seconds(20)
                                   : SimTime::seconds(30);
    preq.target_pps = report.smoke() ? 100.0 : 500.0;
    traffic::MobilityStats pstats;
    const auto pgen =
        traffic::generate_scenario("edge-pingpong", preq, &pstats);
    RunOut run = run_replay(topo, pgen->records, preq.population, shards,
                            threads.front(), preq.duration,
                            /*with_chaos=*/false, opts.telemetry_window());
    const auto& m = run.result.metrics;
    const LatencyRecorder& pct = run.handover_pct;
    std::printf("fig_mobility\tedge-pingpong\t%u\tn=%zu\tp50=%.3f\t"
                "p99=%.3f\tpingpongs=%" PRIu64 "\tsuppressed=%" PRIu64
                "\tryw=%" PRIu64 "\n",
                threads.front(), pct.count(),
                pct.empty() ? 0.0 : pct.percentile(0.50),
                pct.empty() ? 0.0 : pct.percentile(0.99),
                pstats.pingpong_pairs, pstats.suppressed_excursions,
                m.ryw_violations.value());
    obs::Json& row = report.new_row("edge-pingpong");
    fill_row(row, "edge-pingpong", threads.front(), run, *pgen,
             preq.duration);
    row["pingpong_pairs"] = pstats.pingpong_pairs;
    row["suppressed_excursions"] = pstats.suppressed_excursions;
    if (pstats.pingpong_pairs == 0 || pstats.suppressed_excursions == 0) {
      std::fprintf(stderr,
                   "fig_mobility: FAILED: edge-pingpong produced no "
                   "ping-pong pairs or no suppressed excursions\n");
      ok = false;
    }
    if (m.ryw_violations.value() != 0) {
      std::fprintf(stderr, "fig_mobility: FAILED: %" PRIu64
                           " RYW violations under edge-pingpong\n",
                   m.ryw_violations.value());
      ok = false;
    }
  }

  report.finish();
  if (!ok) std::fprintf(stderr, "fig_mobility: acceptance gate FAILED\n");
  return ok ? 0 : 1;
}
