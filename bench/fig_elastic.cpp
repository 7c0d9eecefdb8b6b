// fig_elastic: live CPF scale-out/in under load (DESIGN.md §19).
//
// The paper's control plane is provisioned statically (five CPF
// instances per region, §5); this bench measures what the consistency
// machinery buys once the fleet is *elastic*. A 4-region metro (two
// level-2 quads) runs three churn stories on the sharded runtime across
// worker-thread counts {1,2,4,8}:
//
//  * diurnal-autoscale — a smartphone population shaped by a diurnal
//    envelope; when the envelope's trough crosses the scale-in
//    threshold each region drains one replica, and the replicas rejoin
//    as the morning ramp crosses back. The drain/scale-out instants are
//    derived from the envelope, so capacity follows offered load.
//  * rolling-upgrade — every CPF in the fleet is drained and re-rung
//    one replica at a time (drain, hold past drain_grace, scale out,
//    next), the kernel of a zero-downtime binary rollout.
//  * region-loss — a region's CTA and all five CPFs crash permanently;
//    its UEs re-home to the neighbour region through the ordinary
//    reattach path. No re-ring happens: loss is the crash machinery's
//    job, elasticity's counterfactual.
//
// Acceptance gates (the bench exits non-zero on any miss): zero RYW
// violations in every run, >= 99% procedure completion, the planned
// drain/scale-out counts exactly executed with a non-empty handoff
// latency distribution, reattach-driven re-homing after region loss,
// and bit-identical counters / handoff PCT / ring epochs across every
// worker-thread count (schema v6; validate_report.py re-checks all of
// this offline).
//
//   --ues=N          population (default 20k; --smoke 2k)
//   --threads=a,b,c  worker-thread sweep (default 1,2,4,8)
//   --shards=N       shard count (default 2)
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

/// Deterministic churn injections for one scenario, applied to every
/// shard before the run (ShardedSystem mirrors them at the same
/// simulated time, so shadow rings never diverge).
struct ElasticPlan {
  std::vector<std::pair<SimTime, CpfId>> drains;
  std::vector<std::pair<SimTime, CpfId>> scale_outs;
  std::vector<std::pair<SimTime, CpfId>> crashes;
  int cta_crash_region = -1;
  SimTime cta_crash_at{};
};

/// Earliest sim time at which the envelope crosses `threshold` (scanning
/// from `from_frac`), or `duration` if it never does. The autoscale plan
/// is a pure function of the envelope: capacity follows offered load.
SimTime envelope_crossing(const traffic::DiurnalEnvelope& env,
                          SimTime duration, double from_frac, bool below,
                          double threshold) {
  constexpr int kSamples = 1024;
  for (int i = 0; i <= kSamples; ++i) {
    const double frac = static_cast<double>(i) / kSamples;
    if (frac < from_frac) continue;
    const double level = env.level_at(frac);
    if (below ? level <= threshold : level >= threshold) {
      return SimTime::nanoseconds(static_cast<std::int64_t>(
          static_cast<double>(duration.ns()) * frac));
    }
  }
  return duration;
}

struct RunOut {
  bench::ExperimentResult result;
  LatencyRecorder handoff_pct;
  std::uint64_t ring_epoch = 0;
  double completion = 1.0;
  /// Lost-region UEs whose frontend context ended the run homed
  /// elsewhere (the crash path's re-homing evidence: uplinks into a dead
  /// CTA re-attach through the sibling region without a counter).
  std::uint64_t rehomed_ues = 0;
};

/// One sharded replay with the churn plan armed.
RunOut run_scenario(const core::TopologyConfig& topo,
                    const std::vector<trace::TraceRecord>& records,
                    std::uint64_t population, std::uint32_t shards,
                    std::uint32_t threads, const ElasticPlan& plan,
                    SimTime telemetry_window) {
  bench::ExperimentConfig cfg;
  cfg.policy = core::neutrino_policy();
  cfg.topo = topo;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.preattached_ues = population;
  cfg.drain = SimTime::seconds(10);
  cfg.telemetry_window = telemetry_window;
  std::uint64_t ring_epoch = 0;
  std::uint64_t rehomed_ues = 0;
  bench::ExperimentResult result = bench::run_experiment(
      cfg, records,
      [&plan](core::ShardedSystem& sys) {
        for (const auto& [at, cpf] : plan.drains) sys.schedule_drain(at, cpf);
        for (const auto& [at, cpf] : plan.scale_outs) {
          sys.schedule_scale_out(at, cpf);
        }
        for (const auto& [at, cpf] : plan.crashes) sys.schedule_crash(at, cpf);
        if (plan.cta_crash_region >= 0) {
          sys.schedule_cta_crash(
              plan.cta_crash_at,
              static_cast<std::uint32_t>(plan.cta_crash_region));
        }
      },
      [&](core::ShardedSystem& sys) {
        ring_epoch = sys.system(0).ring_epoch();
        if (plan.cta_crash_region < 0) return;
        const auto lost = static_cast<std::uint32_t>(plan.cta_crash_region);
        const auto regions = static_cast<std::uint64_t>(topo.total_regions());
        core::System& home = sys.system(sys.shard_of_region(lost));
        for (std::uint64_t ue = lost; ue < population; ue += regions) {
          if (home.frontend().region_of(UeId(ue)) != lost) ++rehomed_ues;
        }
      });
  RunOut out{std::move(result), LatencyRecorder{}, ring_epoch, 1.0,
             rehomed_ues};
  out.handoff_pct.merge(out.result.metrics.handoff_pct);
  const auto& m = out.result.metrics;
  out.completion =
      m.procedures_started == 0u
          ? 1.0
          : static_cast<double>(m.procedures_completed.value()) /
                static_cast<double>(m.procedures_started.value());
  return out;
}

/// Everything a deterministic run computes, flattened for cross-thread
/// comparison (wall clock and rates excluded by construction).
std::map<std::string, std::uint64_t> fingerprint(const RunOut& run) {
  std::map<std::string, std::uint64_t> fp;
  fp["events"] = run.result.events_executed;
  fp["windows"] = run.result.windows;
  fp["cross_messages"] = run.result.cross_shard_messages;
  fp["ring_epoch"] = run.ring_epoch;
  fp["rehomed_ues"] = run.rehomed_ues;
  run.result.metrics.registry.for_each_counter(
      [&](const std::string& key, const obs::Counter& c) {
        fp["counter." + key] = c.value();
      });
  const auto s = run.handoff_pct.summary();
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
  row["completion_rate"] = run.completion;
  row["ring_epoch"] = run.ring_epoch;
  row["migrated_ues"] = run.result.metrics.handoff_ues.value();
  obs::Json pct = obs::summary_json(run.handoff_pct);
  // "n" alongside summary_json's "count": opts the summary into the
  // validator's monotone-percentile check (and the summarizer reads it).
  pct["n"] = run.handoff_pct.count();
  pct["p95"] =
      run.handoff_pct.empty() ? 0.0 : run.handoff_pct.percentile(0.95);
  row["handoff_ms"] = std::move(pct);
  row["wall_seconds"] = run.result.wall_seconds;
  row["events_executed"] = run.result.events_executed;
  bench::Report::attach_result(row, run.result);
}

struct Gates {
  std::uint64_t drains = 0;
  std::uint64_t scale_outs = 0;
  bool want_handoffs = false;
  std::uint64_t min_rehomed = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Report report(
      argc, argv, "fig_elastic",
      "Elastic control plane: autoscale, rolling upgrade, region loss",
      "runtime re-ringing hands UE state to its new owner through the "
      "checkpoint machinery, so capacity can follow load — and a binary "
      "can roll — with zero RYW violations (§4.2 invariants preserved)");
  const bench::BenchOptions& opts = report.options();

  core::TopologyConfig topo;
  topo.l2_regions = 2;
  topo.l1_per_l2 = 2;  // 4 regions x 5 CPFs; regions {0,1} and {2,3}
                       // block-partition onto the two default shards
  const auto regions = static_cast<std::uint32_t>(topo.total_regions());
  const int replicas = topo.cpfs_per_region;
  const std::uint32_t shards = opts.shards != 0 ? opts.shards : 2;
  std::vector<std::uint32_t> threads = opts.threads;
  if (threads.empty()) threads = {1, 2, 4, 8};

  const std::uint64_t population =
      opts.ues != 0 ? opts.ues : (report.smoke() ? 2'000 : 20'000);
  const SimTime duration =
      report.smoke() ? SimTime::seconds(20) : SimTime::seconds(60);
  const double pps = report.smoke() ? 200.0 : 1'500.0;
  constexpr double kMinCompletion = 0.99;
  constexpr double kScaleInLevel = 0.6;   // envelope trough threshold
  constexpr double kScaleOutLevel = 1.0;  // morning-ramp recovery

  // --- Workloads. The autoscale story rides a diurnal envelope; the
  // upgrade and loss stories run the same device mix flat.
  traffic::DiurnalEnvelope envelope;
  envelope.points = {
      {0.0, 1.2}, {0.2, 0.35}, {0.45, 0.45}, {0.75, 1.8}, {1.0, 1.1}};
  traffic::EngineConfig ecfg;
  ecfg.target_pps = pps;
  ecfg.duration = duration;
  ecfg.population = population;
  ecfg.regions = static_cast<int>(regions);
  ecfg.seed = 31;
  traffic::DeviceClassConfig phones;
  phones.name = "smartphone";
  phones.think.sigma = 1.2;
  phones.chain = traffic::detail::smartphone_chain();
  phones.initial = traffic::ProcState::kServiceRequest;  // preattached
  ecfg.classes = {phones};

  traffic::EngineConfig diurnal_cfg = ecfg;
  diurnal_cfg.envelope = envelope;
  const traffic::GeneratedTraffic diurnal = traffic::generate(diurnal_cfg);
  traffic::EngineConfig flat_cfg = ecfg;
  flat_cfg.seed = 32;
  const traffic::GeneratedTraffic flat = traffic::generate(flat_cfg);

  // --- The three plans (all instants are pure functions of the config).
  const SimTime scale_in_at =
      envelope_crossing(envelope, duration, 0.0, true, kScaleInLevel);
  const SimTime scale_out_at = envelope_crossing(
      envelope, duration, static_cast<double>(scale_in_at.ns()) /
                              static_cast<double>(duration.ns()),
      false, kScaleOutLevel);
  ElasticPlan autoscale;
  for (std::uint32_t r = 0; r < regions; ++r) {
    const CpfId spare = topo.cpf_at(r, replicas - 1);
    autoscale.drains.emplace_back(scale_in_at, spare);
    autoscale.scale_outs.emplace_back(scale_out_at, spare);
  }

  // Rolling upgrade: drain, hold past drain_grace so the old binary has
  // fully retired, scale out, move to the next replica.
  const SimTime roll_start = report.smoke() ? SimTime::seconds(2)
                                            : SimTime::seconds(5);
  const SimTime roll_step = report.smoke() ? SimTime::milliseconds(800)
                                           : SimTime::seconds(2);
  const SimTime roll_hold = report.smoke() ? SimTime::milliseconds(400)
                                           : SimTime::milliseconds(500);
  ElasticPlan rolling;
  for (std::uint32_t r = 0; r < regions; ++r) {
    for (int i = 0; i < replicas; ++i) {
      const auto slot = static_cast<std::int64_t>(r) * replicas + i;
      const SimTime at = roll_start + SimTime::nanoseconds(
                                          slot * roll_step.ns());
      rolling.drains.emplace_back(at, topo.cpf_at(r, i));
      rolling.scale_outs.emplace_back(at + roll_hold, topo.cpf_at(r, i));
    }
  }

  // Region loss: region 0's CTA and every CPF die for good; UEs re-home
  // to region 1 (same shard — the reroute must not cross the partition).
  ElasticPlan loss;
  loss.cta_crash_region = 0;
  loss.cta_crash_at = SimTime::nanoseconds(duration.ns() * 7 / 20);  // 0.35
  for (int i = 0; i < replicas; ++i) {
    loss.crashes.emplace_back(loss.cta_crash_at, topo.cpf_at(0, i));
  }

  obs::Json& config = report.config();
  config["shards"] = shards;
  config["regions"] = static_cast<std::int64_t>(regions);
  config["cpfs_per_region"] = static_cast<std::int64_t>(replicas);
  config["offered_pps"] = pps;
  config["duration_ms"] = duration.sec() * 1e3;
  config["population"] = population;
  obs::Json& elastic = config["elastic"];
  elastic["drain_grace_ms"] = core::ProtocolConfig{}.drain_grace.sec() * 1e3;
  elastic["scale_in_level"] = kScaleInLevel;
  elastic["scale_out_level"] = kScaleOutLevel;
  obs::Json& auto_cfg = elastic["autoscale"];
  auto_cfg["drain_at_ms"] = scale_in_at.sec() * 1e3;
  auto_cfg["restore_at_ms"] = scale_out_at.sec() * 1e3;
  auto_cfg["drained_replicas"] =
      static_cast<std::int64_t>(autoscale.drains.size());
  auto_cfg["drained_cpf_seconds"] =
      static_cast<double>(autoscale.drains.size()) *
      (scale_out_at - scale_in_at).sec();
  obs::Json& roll_cfg = elastic["rolling"];
  roll_cfg["step_ms"] = roll_step.sec() * 1e3;
  roll_cfg["hold_ms"] = roll_hold.sec() * 1e3;
  roll_cfg["replicas"] = static_cast<std::int64_t>(rolling.drains.size());
  obs::Json& loss_cfg = elastic["region_loss"];
  loss_cfg["region"] = static_cast<std::int64_t>(loss.cta_crash_region);
  loss_cfg["at_ms"] = loss.cta_crash_at.sec() * 1e3;
  obs::Json& env_json = elastic["envelope"];
  env_json.make_array();
  for (const auto& [frac, level] : envelope.points) {
    obs::Json& p = env_json.push_back(obs::Json{});
    p.make_array();
    p.push_back(frac);
    p.push_back(level);
  }

  std::printf("# elastic: %u regions x %d CPFs, autoscale drains %zu "
              "replicas at %.1fs, restores at %.1fs; rolling upgrade "
              "steps %zu replicas every %.1fs; region %d lost at %.1fs\n",
              regions, replicas, autoscale.drains.size(), scale_in_at.sec(),
              scale_out_at.sec(), rolling.drains.size(), roll_step.sec(),
              loss.cta_crash_region, loss.cta_crash_at.sec());

  struct Scenario {
    const char* name;
    const traffic::GeneratedTraffic* gen;
    const ElasticPlan* plan;
    Gates gates;
  };
  // Re-homing is driven by each lost-region UE's next uplink, so demand
  // it from a quarter of that population: far above noise, comfortably
  // below the share that won't stay idle through the post-loss window.
  const std::uint64_t lost_population = population / regions;
  const Scenario scenarios[] = {
      {"diurnal-autoscale", &diurnal, &autoscale,
       {autoscale.drains.size(), autoscale.scale_outs.size(), true, 0}},
      {"rolling-upgrade", &flat, &rolling,
       {rolling.drains.size(), rolling.scale_outs.size(), true, 0}},
      {"region-loss", &flat, &loss, {0, 0, false, lost_population / 4}},
  };

  bool ok = true;
  for (const Scenario& sc : scenarios) {
    std::map<std::string, std::uint64_t> reference;
    std::uint32_t reference_threads = 0;
    for (const std::uint32_t t : threads) {
      RunOut run = run_scenario(topo, sc.gen->records, population, shards,
                                t, *sc.plan, opts.telemetry_window());
      const auto& m = run.result.metrics;
      const LatencyRecorder& ho = run.handoff_pct;
      std::printf(
          "fig_elastic\t%s\t%u\tcompletion=%.4f\tdrains=%" PRIu64
          "\tscale_outs=%" PRIu64 "\tmigrated=%" PRIu64 "\tho_p50=%.3f\t"
          "ho_p99=%.3f\tepoch=%" PRIu64 "\trehomed=%" PRIu64
          "\tryw=%" PRIu64 "\n",
          sc.name, t, run.completion, m.drains.value(),
          m.scale_outs.value(), m.handoff_ues.value(),
          ho.empty() ? 0.0 : ho.percentile(0.50),
          ho.empty() ? 0.0 : ho.percentile(0.99), run.ring_epoch,
          run.rehomed_ues, m.ryw_violations.value());
      obs::Json& row = report.new_row(sc.name);
      fill_row(row, sc.name, t, run, *sc.gen, duration);
      if (sc.gates.min_rehomed > 0) row["rehomed_ues"] = run.rehomed_ues;

      if (m.ryw_violations.value() != 0) {
        std::fprintf(stderr,
                     "fig_elastic: FAILED: %" PRIu64
                     " RYW violations in %s at threads=%u\n",
                     m.ryw_violations.value(), sc.name, t);
        ok = false;
      }
      if (run.completion < kMinCompletion) {
        std::fprintf(stderr,
                     "fig_elastic: FAILED: completion %.4f < %.2f in %s "
                     "at threads=%u\n",
                     run.completion, kMinCompletion, sc.name, t);
        ok = false;
      }
      if (m.drains.value() != sc.gates.drains ||
          m.scale_outs.value() != sc.gates.scale_outs) {
        std::fprintf(stderr,
                     "fig_elastic: FAILED: %s executed %" PRIu64
                     " drains / %" PRIu64 " scale-outs, planned %" PRIu64
                     " / %" PRIu64 " (threads=%u)\n",
                     sc.name, m.drains.value(), m.scale_outs.value(),
                     sc.gates.drains, sc.gates.scale_outs, t);
        ok = false;
      }
      if (sc.gates.want_handoffs &&
          (m.handoff_ues.value() == 0 || ho.empty())) {
        std::fprintf(stderr,
                     "fig_elastic: FAILED: %s handed off no UE state at "
                     "threads=%u\n",
                     sc.name, t);
        ok = false;
      }
      if (run.rehomed_ues < sc.gates.min_rehomed) {
        std::fprintf(stderr,
                     "fig_elastic: FAILED: only %" PRIu64
                     " UEs re-homed off the lost region (want >= %" PRIu64
                     ") at threads=%u\n",
                     run.rehomed_ues, sc.gates.min_rehomed, t);
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
                         "fig_elastic: FAILED: %s: %s differs at "
                         "threads=%u vs threads=%u\n",
                         sc.name, key.c_str(), t, reference_threads);
          }
        }
        ok = false;
      }
    }
  }

  report.finish();
  if (!ok) std::fprintf(stderr, "fig_elastic: acceptance gate FAILED\n");
  return ok ? 0 : 1;
}
