// Scale: million-UE attach + service-request storm, simulator throughput.
//
// Not a figure from the paper — this is the repo's perf gate. The ROADMAP
// north star ("millions of users, as fast as the hardware allows") makes
// simulator throughput the binding constraint on every storm experiment;
// this bench pins it as events/sec, procedures/sec, peak RSS, each row's
// live heap and its table census by owner, so later changes have a
// trajectory to beat (BENCH_scale.json baseline).
//
// Workload: every UE attaches during a bursty storm window, then issues
// one service request in a second wave — the §6.1 bursty IoT pattern at
// population scale. PCT accounting runs in constant-memory streaming mode
// (no per-procedure sample retention). The run fails (non-zero exit) if
// any procedure fails to complete or a Read-your-Writes violation occurs.
#include <algorithm>
#include <cinttypes>
#include <optional>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "obs/throughput.hpp"

using namespace neutrino;

namespace {

/// Streaming recorders have no order statistics: emit count/mean/max only
/// (validate_report.py's percentile check keys off "p50", absent here).
obs::Json streaming_summary(const LatencyRecorder& r) {
  obs::Json j;
  j["count"] = r.count();
  j["mean"] = r.mean();
  j["max"] = r.empty() ? 0.0 : r.max();
  return j;
}

/// The three row kinds: the one-region storm per policy, the one-shard
/// run over the partitioned topology (check.sh's shard-sync denominator)
/// and the sharded runs, one per thread count.
enum class RowKind { kOneRegion, kShardedBaseline, kSharded };

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::BenchOptions::parse(argc, argv);
  bench::Report report("scale", "million-UE storm: simulator throughput",
                       "simulation-core perf gate (events/sec baseline)",
                       opts);
  // --scenario=NAME swaps the built-in two-wave storm for a traffic-engine
  // scenario (same average rate, same population); unknown names exit 2.
  const traffic::ScenarioInfo* scen = bench::require_scenario(opts.scenario);
  const std::uint64_t n_ues =
      opts.ues != 0 ? opts.ues : (report.smoke() ? 100'000 : 1'000'000);
  // ~17 KPPS offered load: below the EPC saturation knee (Fig. 8), so the
  // measurement is simulator throughput, not modeled queueing collapse.
  const SimTime attach_window =
      SimTime::seconds(static_cast<std::int64_t>(n_ues / 16'667 + 1));
  const SimTime wave_gap = SimTime::seconds(5);

  report.config()["ues"] = n_ues;
  report.config()["attach_window_s"] = attach_window.sec();
  report.config()["wave_gap_s"] = wave_gap.sec();
  // Interpreting the sharded rows needs the machine's parallelism: on a
  // single-core host the threads>1 rows measure synchronization overhead,
  // not speedup (results are identical either way; only wall-clock moves).
  report.config()["hardware_threads"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());

  // Scenario generation parameters (scenario mode only): the storm's
  // average rate over the attach window, re-generated per topology because
  // UE homes are ue % regions.
  traffic::ScenarioRequest screq;
  screq.target_pps = 16'667;
  screq.duration = attach_window;
  screq.population = n_ues;
  screq.seed = 42;

  // Build the offered trace. Default: the two-wave storm — attach burst,
  // then a service-request storm — byte-identical to what this bench has
  // always offered when --scenario= is unset.
  std::vector<traffic::TraceRecord> t;
  std::optional<traffic::GeneratedTraffic> scen_traffic;
  if (scen != nullptr) {
    screq.regions = static_cast<int>(core::TopologyConfig{}.total_regions());
    scen_traffic = traffic::generate_scenario(opts.scenario, screq);
    t = scen_traffic->records;
    bench::echo_scenario_config(report.config(), *scen, screq);
  } else {
    t = traffic::wave(n_ues, core::ProcedureType::kAttach, SimTime{},
                      attach_window, /*seed=*/42);
    t.reserve(2 * t.size());
    const auto requests =
        traffic::wave(n_ues, core::ProcedureType::kServiceRequest,
                      attach_window + wave_gap, attach_window, /*seed=*/1337);
    t.insert(t.end(), requests.begin(), requests.end());
  }

  obs::RssMeter rss_meter;
  report.config()["rss_baseline_bytes"] = rss_meter.baseline_bytes();
  report.config()["telemetry"] = opts.telemetry;

  // One writer for every row: the TSV line, the report row and the
  // completion/RYW check, which returns false on any incomplete procedure
  // or RYW violation. The baseline row carries no procedure rate and no
  // PCT summaries; sharded rows add windows, cross-shard traffic and the
  // phase profiler. `scenario` is the replayed traffic in scenario mode.
  const auto write_row = [&](RowKind kind, std::string_view policy,
                             bench::ExperimentResult& result,
                             std::size_t rss_delta,
                             const traffic::GeneratedTraffic* scenario,
                             const obs::PhaseProfiler* profiler) {
    const bool baseline = kind == RowKind::kShardedBaseline;
    const std::uint64_t started = result.metrics.procedures_started;
    const std::uint64_t completed = result.metrics.procedures_completed;
    const std::uint64_t ryw = result.metrics.ryw_violations;
    const auto per_sec = [&](std::uint64_t n) {
      return result.wall_seconds > 0
                 ? static_cast<double>(n) / result.wall_seconds
                 : 0.0;
    };
    const double events_per_sec = per_sec(result.events_executed);
    const double procs_per_sec = per_sec(completed);
    const std::size_t rss = obs::peak_rss_bytes();

    std::string label(policy);
    if (baseline) label += "\tsharded-topo-baseline";
    if (kind == RowKind::kSharded) {
      label += "\tshards=" + std::to_string(result.shards) +
               "\tthreads=" + std::to_string(result.threads);
    }
    std::printf("scale\t%s\tues=%" PRIu64 "\tevents=%" PRIu64, label.c_str(),
                n_ues, result.events_executed);
    if (kind == RowKind::kSharded) {
      std::printf("\twindows=%" PRIu64 "\tcross=%" PRIu64, result.windows,
                  result.cross_shard_messages);
    }
    std::printf("\twall_s=%.3f\tevents_per_sec=%.0f", result.wall_seconds,
                events_per_sec);
    if (!baseline) {
      std::printf("\tprocs_per_sec=%.0f\tpeak_rss_mb=%.1f\tcompleted=%" PRIu64
                  "/%" PRIu64 "\tryw=%" PRIu64,
                  procs_per_sec, static_cast<double>(rss) / (1024.0 * 1024.0),
                  completed, started, ryw);
    }
    std::printf("\n");

    obs::Json& row = report.new_row(policy);
    row["ues"] = n_ues;
    if (baseline) row["sharded_baseline"] = true;
    row["events_executed"] = result.events_executed;
    row["wall_seconds"] = result.wall_seconds;
    row["events_per_sec"] = events_per_sec;
    if (!baseline) row["procedures_per_sec"] = procs_per_sec;
    row["peak_rss_bytes"] = rss;
    row["peak_rss_delta_bytes"] = static_cast<std::uint64_t>(rss_delta);
    bench::Report::attach_table_bytes(row, result);
    if (!baseline) {
      row["attach_ms"] = streaming_summary(result.metrics.pct_for(
          core::ProcedureType::kAttach));
      row["service_request_ms"] = streaming_summary(result.metrics.pct_for(
          core::ProcedureType::kServiceRequest));
      if (scenario != nullptr) {
        row["scenario"] = opts.scenario;
        bench::attach_arrivals(row, *scenario, screq.duration);
      }
    }
    bench::Report::attach_result(row, result);
    if (profiler != nullptr) bench::Report::attach_profiler(row, *profiler);

    if (completed == started && ryw == 0) return true;
    std::replace(label.begin(), label.end(), '\t', ' ');
    std::fprintf(stderr,
                 "scale_throughput: FAILED %s: completed %" PRIu64
                 " of %" PRIu64 " procedures, ryw_violations=%" PRIu64 "\n",
                 label.c_str(), completed, started, ryw);
    return false;
  };

  bool ok = true;
  for (const auto& policy :
       {core::existing_epc_policy(), core::neutrino_policy()}) {
    bench::ExperimentConfig cfg;
    cfg.policy = policy;
    cfg.topo = core::TopologyConfig{};  // the paper's 1-region testbed
    cfg.proto = core::ProtocolConfig{};
    cfg.streaming_pct = true;  // constant-memory PCT at storm scale
    cfg.telemetry_window = opts.telemetry_window();
    if (scen != nullptr && scen->preattach) cfg.preattached_ues = n_ues;
    rss_meter.begin_run();
    auto result = bench::run_experiment(cfg, t);
    const std::size_t rss_delta = rss_meter.run_delta_bytes();
    ok &= write_row(RowKind::kOneRegion, policy.name, result, rss_delta,
                    scen_traffic ? &*scen_traffic : nullptr, nullptr);
  }

  // Multi-shard rows (--threads=1,2,..., optional --shards=N): the same
  // two-wave storm over a topology partitioned one region per shard (UE
  // homes are ue % regions, so load spreads evenly). Cross-shard traffic
  // comes from Neutrino's level-2 remote backups. Results are
  // deterministic per shard count; only wall-clock varies with threads.
  if (!opts.threads.empty()) {
    const std::uint32_t shards = opts.effective_shards();
    bench::ExperimentConfig cfg;
    cfg.policy = core::neutrino_policy();
    cfg.topo = core::TopologyConfig{};
    cfg.topo.l1_per_l2 = static_cast<int>(shards);  // one region per shard
    cfg.proto = core::ProtocolConfig{};
    cfg.streaming_pct = true;
    cfg.telemetry_window = opts.telemetry_window();
    // Scenario mode regenerates the trace for the partitioned topology
    // (UE homes are ue % regions, so the shard count changes the homing);
    // the generator itself is single-threaded and deterministic, so every
    // thread count replays the identical record stream.
    std::optional<traffic::GeneratedTraffic> sharded_traffic;
    if (scen != nullptr) {
      screq.regions = static_cast<int>(cfg.topo.total_regions());
      sharded_traffic = traffic::generate_scenario(opts.scenario, screq);
      cfg.preattached_ues = scen->preattach ? n_ues : 0;
    }
    const std::vector<traffic::TraceRecord>& ts =
        sharded_traffic ? sharded_traffic->records : t;
    report.config()["shards"] = shards;
    report.config()["sharded_regions"] = cfg.topo.total_regions();

    // One shard over the *same partitioned topology*: the honest
    // denominator for shard-sync overhead. Comparing sharded rows against
    // the 1-region row above would conflate the topology change (more
    // regions, remote backups) with the runtime's window/barrier/outbox
    // machinery; this row isolates the latter. check.sh's perf gate reads
    // it via "sharded_baseline": true.
    double baseline_wall = 0.0;
    {
      rss_meter.begin_run();
      auto result = bench::run_experiment(cfg, ts);
      const std::size_t rss_delta = rss_meter.run_delta_bytes();
      baseline_wall = result.wall_seconds;
      ok &= write_row(RowKind::kShardedBaseline, cfg.policy.name, result,
                      rss_delta, nullptr, nullptr);
    }

    cfg.shards = shards;
    double threads1_wall = 0.0;
    for (std::size_t ti = 0; ti < opts.threads.size(); ++ti) {
      const std::uint32_t threads = opts.threads[ti];
      cfg.threads = threads;
      // --trace-out: the last (widest) sharded row logs its conservative
      // windows and exports them as Perfetto shard tracks.
      cfg.record_trace_events =
          !opts.trace_out.empty() && ti + 1 == opts.threads.size();
      // Wall-clock phase attribution for this row (schedule / dispatch /
      // barrier-wait / channel-drain / codec). Lives only in the row's
      // "profiler" section — never in determinism-compared output.
      obs::PhaseProfiler profiler(std::max<std::size_t>(shards, threads));
      rss_meter.begin_run();
      auto result = bench::run_experiment(
          cfg, ts, [&profiler](core::ShardedSystem& sys) {
            sys.set_profiler(&profiler);
          });
      const std::size_t rss_delta = rss_meter.run_delta_bytes();
      if (cfg.record_trace_events) {
        bench::write_trace_file(
            opts.trace_out,
            obs::perfetto_trace(result.tracer.get(), result.window_log),
            &profiler);
      }
      ok &= write_row(RowKind::kSharded, cfg.policy.name, result, rss_delta,
                      sharded_traffic ? &*sharded_traffic : nullptr,
                      &profiler);
      if (threads == 1) threads1_wall = result.wall_seconds;
    }
    // Shard-sync overhead at one worker thread: the windows/barriers/
    // outboxes cost with parallel execution factored out. ROADMAP open
    // item 3 targets ≤15%; check.sh gates on this figure.
    if (threads1_wall > 0 && baseline_wall > 0) {
      const double overhead = threads1_wall / baseline_wall - 1.0;
      report.config()["sync_overhead_threads1"] = overhead;
      std::printf("scale\tsync-overhead\tthreads=1\t%.4f\n", overhead);
    }
  }
  report.finish();
  return ok ? 0 : 1;
}
