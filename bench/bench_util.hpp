// Shared experiment driver for the figure-reproduction benches.
//
// Each bench binary regenerates one figure of the paper's evaluation: it
// builds the simulated core under each compared policy, replays the
// figure's workload, and prints the same series the paper plots
// (tab-separated; percentiles for the box plots). Absolute numbers depend
// on this machine; the *shape* is the reproduction target (DESIGN.md §5).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/sharded_system.hpp"
#include "core/system.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "obs/slo.hpp"
#include "obs/throughput.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "trace/workload.hpp"
#include "traffic/scenario.hpp"

namespace neutrino::bench {

/// The real-codec cost model, measured once per bench binary.
inline const core::MeasuredCostModel& measured_costs() {
  static const core::MeasuredCostModel model;
  return model;
}

/// The paper's testbed runs every core node on two directly-cabled
/// servers: region boundaries exist logically but add no propagation
/// delay. The handover/failure/application figures use this profile; the
/// library defaults model a geographically spread edge deployment.
inline core::LatencyConfig testbed_latencies() {
  core::LatencyConfig l;
  l.intra_l2 = SimTime::microseconds(30);
  l.inter_l2 = SimTime::microseconds(30);
  return l;
}

struct ExperimentResult {
  core::Metrics metrics;
  double sim_seconds = 0;
  /// Events the loop dispatched and the wall-clock it took: the
  /// events/sec throughput figure for scale benches.
  std::uint64_t events_executed = 0;
  double wall_seconds = 0;
  /// Sharded-runtime runs only (run_sharded_experiment): partitioning,
  /// conservative-window and cross-shard traffic figures. shard_events is
  /// empty for legacy single-threaded runs — report rows key off that.
  std::uint32_t shards = 1;
  std::uint32_t threads = 1;
  std::uint64_t windows = 0;
  std::uint64_t cross_shard_messages = 0;
  /// Adaptive-window accounting (deterministic; zero with the static
  /// schedule): shard-windows widened past the static bound, and
  /// shard-windows skipped because nothing preceded their horizon.
  std::uint64_t adaptive_extensions = 0;
  std::uint64_t dispatches_skipped = 0;
  std::vector<std::uint64_t> shard_events;
  /// Retained for --trace-out export when the run traced (null otherwise).
  std::unique_ptr<obs::ProcTracer> tracer;
  /// Per-window shard activity (sharded runs with record_trace_events):
  /// the Perfetto shard tracks.
  std::vector<obs::ShardWindowRecord> window_log;
};

struct ExperimentConfig {
  core::CorePolicy policy;
  core::TopologyConfig topo;
  core::ProtocolConfig proto;
  /// Pre-attach this many UEs (ids [0, n)) round-robin across regions.
  std::uint64_t preattached_ues = 0;
  /// Run this long past the last scheduled arrival.
  SimTime drain = SimTime::seconds(30);
  /// Attach a decomposition tracer for the run: every completed
  /// procedure's latency is split by hop class into the result registry's
  /// "core.pct_decomp_ms{component=..,proc=..}" histograms (components
  /// tile the PCT exactly; "total" is recorded alongside). Off by
  /// default — tracing then costs one null test per hop site.
  bool trace_decomposition = false;
  /// Constant-memory PCT accounting (streaming mean/max, no retained
  /// samples) for storm-scale runs; percentile queries are then invalid.
  bool streaming_pct = false;
  /// Arm the deep-telemetry layer (DESIGN.md §15) at this sim-time
  /// cadence: windowed series plus per-procedure SLO burn tracking,
  /// exported as the row's "timeseries"/"slo" sections. Zero (default) =
  /// fully off — the run does not even schedule sampling ticks.
  SimTime telemetry_window;
  /// Retain hop-event timelines (slowest + failed spans) for Perfetto
  /// export; in sharded runs also log per-window shard activity.
  bool record_trace_events = false;
  /// Sharded runs only: per-destination adaptive windows (DESIGN.md §16).
  /// Benches default on — outcome determinism across thread counts is
  /// unaffected and window count drops sharply; the scale bench emits an
  /// explicit adaptive-off row for comparison.
  bool adaptive_lookahead = true;
};

/// Default per-procedure SLO targets for bench telemetry, loose enough
/// that a healthy testbed run burns ≈0 and a failure/overload window
/// visibly burns >1. All in milliseconds of PCT.
inline std::vector<std::pair<core::ProcedureType, obs::SloTarget>>
default_slo_targets() {
  using PT = core::ProcedureType;
  return {
      {PT::kAttach, {2.0, 4.0, 8.0}},
      {PT::kServiceRequest, {1.0, 2.0, 4.0}},
      {PT::kHandover, {1.5, 3.0, 6.0}},
      {PT::kIntraHandover, {1.0, 2.0, 4.0}},
      {PT::kReattach, {4.0, 8.0, 16.0}},
      {PT::kDetach, {1.0, 2.0, 4.0}},
      {PT::kTau, {1.0, 2.0, 4.0}},
  };
}

/// Build a system, replay a trace, run to completion, return the metrics.
/// `extra_setup(system, loop)` runs before the replay (failure injection);
/// `post(system)` runs after the loop drains (outage queries etc.).
template <typename SetupFn, typename PostFn>
ExperimentResult run_experiment(const ExperimentConfig& cfg,
                                const std::vector<trace::TraceRecord>& t,
                                SetupFn&& extra_setup, PostFn&& post) {
  sim::EventLoop loop;
  core::Metrics metrics;
  if (cfg.streaming_pct) metrics.use_streaming_pct();
  core::System system(loop, cfg.policy, cfg.topo, cfg.proto,
                      measured_costs(), metrics);
  std::unique_ptr<obs::ProcTracer> tracer;
  if (cfg.trace_decomposition || cfg.record_trace_events) {
    obs::TracerConfig tc;
    tc.record_events = cfg.record_trace_events;
    tc.keep_slowest = cfg.record_trace_events ? 16 : 8;
    tc.keep_failed = cfg.record_trace_events ? 16 : 0;
    tracer = std::make_unique<obs::ProcTracer>(
        tc, cfg.trace_decomposition ? &metrics.registry : nullptr);
    system.attach_tracer(*tracer);
  }
  const auto regions =
      static_cast<std::uint32_t>(cfg.topo.total_regions());
  for (std::uint64_t ue = 0; ue < cfg.preattached_ues; ++ue) {
    system.frontend().preattach(UeId(ue),
                                static_cast<std::uint32_t>(ue % regions));
  }
  extra_setup(system, loop);
  trace::replay(system, t);
  SimTime horizon = cfg.drain;
  if (!t.empty()) horizon += t.back().at;
  if (cfg.telemetry_window.ns() > 0) {
    system.arm_telemetry(cfg.telemetry_window, horizon);
    metrics.arm_slo(cfg.telemetry_window, default_slo_targets());
  }
  obs::WallTimer wall;
  loop.run_until(horizon);
  const double wall_seconds = wall.seconds();
  post(system);
  ExperimentResult result{std::move(metrics), horizon.sec(), loop.executed(),
                          wall_seconds};
  result.tracer = std::move(tracer);
  return result;
}

template <typename SetupFn>
ExperimentResult run_experiment(const ExperimentConfig& cfg,
                                const std::vector<trace::TraceRecord>& t,
                                SetupFn&& extra_setup) {
  return run_experiment(cfg, t, std::forward<SetupFn>(extra_setup),
                        [](core::System&) {});
}

inline ExperimentResult run_experiment(
    const ExperimentConfig& cfg, const std::vector<trace::TraceRecord>& t) {
  return run_experiment(cfg, t, [](core::System&, sim::EventLoop&) {},
                        [](core::System&) {});
}

/// Sharded-runtime counterpart of run_experiment: the topology is
/// partitioned across `shards` conservatively-synchronized event loops
/// executed by `threads` workers (DESIGN.md §11). Results are
/// deterministic for a fixed shard count regardless of thread count; the
/// merged metrics are comparable with a legacy run of the same topology.
inline ExperimentResult run_sharded_experiment(
    const ExperimentConfig& cfg, const std::vector<trace::TraceRecord>& t,
    std::uint32_t shards, std::uint32_t threads,
    obs::PhaseProfiler* profiler = nullptr) {
  core::ShardedSystem::Config scfg;
  scfg.policy = cfg.policy;
  scfg.topo = cfg.topo;
  scfg.proto = cfg.proto;
  scfg.shards = shards;
  scfg.threads = threads;
  scfg.adaptive_lookahead = cfg.adaptive_lookahead;
  scfg.streaming_pct = cfg.streaming_pct;
  core::ShardedSystem sys(scfg, measured_costs());
  sys.set_profiler(profiler);
  if (cfg.record_trace_events) sys.enable_window_log();
  const auto regions = static_cast<std::uint32_t>(cfg.topo.total_regions());
  for (std::uint64_t ue = 0; ue < cfg.preattached_ues; ++ue) {
    sys.preattach(UeId(ue), static_cast<std::uint32_t>(ue % regions));
  }
  sys.replay(t);
  SimTime horizon = cfg.drain;
  if (!t.empty()) horizon += t.back().at;
  if (cfg.telemetry_window.ns() > 0) {
    sys.arm_telemetry(cfg.telemetry_window, horizon);
    sys.arm_slo(cfg.telemetry_window, default_slo_targets());
  }
  obs::WallTimer wall;
  sys.run_until(horizon);
  const double wall_seconds = wall.seconds();
  ExperimentResult result{sys.merged_metrics(), horizon.sec(),
                          sys.events_executed(), wall_seconds, shards,
                          threads};
  result.windows = sys.stats().windows;
  result.cross_shard_messages = sys.stats().cross_messages;
  result.adaptive_extensions = sys.stats().adaptive_extensions;
  result.dispatches_skipped = sys.stats().dispatches_skipped;
  result.shard_events = sys.shard_events();
  if (cfg.record_trace_events) {
    for (const auto& w : sys.window_log()) {
      result.window_log.push_back(
          obs::ShardWindowRecord{w.start, w.end, w.cross_messages, w.executed});
    }
  }
  return result;
}

/// Print one box-plot row: label, x, then the PCT distribution in ms.
inline void print_pct_row(const char* figure, std::string_view system_name,
                          double x, const LatencyRecorder& pct) {
  if (pct.empty()) {
    std::printf("%s\t%s\t%.0f\tno-samples\n", figure,
                std::string(system_name).c_str(), x);
    return;
  }
  std::printf(
      "%s\t%s\t%.0f\tn=%zu\tp25=%.3f\tp50=%.3f\tp75=%.3f\tp99=%.3f\t"
      "max=%.3f\n",
      figure, std::string(system_name).c_str(), x, pct.count(), pct.p25(),
      pct.median(), pct.p75(), pct.p99(), pct.max());
}

inline void print_header(const char* figure, const char* title,
                         const char* paper_claim) {
  std::printf("# %s — %s\n", figure, title);
  std::printf("# paper: %s\n", paper_claim);
}

/// Serialize a Perfetto trace document to `path` (see obs/trace_export.hpp;
/// load at https://ui.perfetto.dev). When `profiler` is non-null the
/// serialization cost is attributed to its kCodec phase (lane 0).
inline bool write_trace_file(const std::string& path, const obs::Json& trace,
                             obs::PhaseProfiler* profiler = nullptr) {
  std::string out;
  {
    auto codec =
        obs::PhaseProfiler::scoped(profiler, 0, obs::Phase::kCodec);
    out = trace.dump(1);
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write trace to %s\n", path.c_str());
    return false;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("# trace: %s\n", path.c_str());
  return true;
}

/// Command-line options every bench understands.
struct BenchOptions {
  /// Shrunk rates/durations for CI (scripts/check.sh): seconds, not
  /// minutes, while still exercising every code path.
  bool smoke = false;
  /// Where the JSON report goes; empty = stdout after the TSV.
  std::string report_path;
  /// Benches that support PCT decomposition run it by default;
  /// --no-decompose measures the tracing-disabled baseline.
  bool decompose = true;
  /// --threads=1,2,8: worker-thread counts for the sharded-runtime rows
  /// of benches that support them (scale_throughput). Empty = legacy
  /// single-threaded rows only.
  std::vector<std::uint32_t> threads;
  /// --shards=N: shard count for the sharded rows. 0 = max of --threads,
  /// so the default sweep measures thread scaling at a fixed partition.
  std::uint32_t shards = 0;
  /// --telemetry: arm the deep-telemetry layer (windowed series + SLO
  /// burn tracking) on benches that support it. Off by default so the
  /// overhead gate can measure the disabled path.
  bool telemetry = false;
  /// --telemetry-window-ms=N: sampling cadence (sim-time).
  double telemetry_window_ms = 100.0;
  /// --trace-out=PATH: write a Chrome/Perfetto trace-event JSON of the
  /// run (procedure hop spans + shard window tracks) to PATH.
  std::string trace_out;
  /// --adaptive-lookahead=0|1: per-destination adaptive windows for the
  /// sharded rows (default on; see ExperimentConfig::adaptive_lookahead).
  bool adaptive_lookahead = true;
  /// --scenario=NAME: drive the bench with a named traffic-engine
  /// scenario (src/traffic/scenario.hpp) instead of its built-in
  /// workload. Empty (default) keeps the built-in workload byte-for-byte.
  /// Unknown names are a hard error (require_scenario exits 2).
  std::string scenario;
  /// --ues=N: override the bench's UE population (0 = bench default).
  /// Lets the CI scenario stage run every scenario at small scale.
  std::uint64_t ues = 0;

  static BenchOptions parse(int argc, char** argv) {
    BenchOptions o;
    if (const char* env = std::getenv("NEUTRINO_REPORT")) o.report_path = env;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--smoke") {
        o.smoke = true;
      } else if (arg == "--no-decompose") {
        o.decompose = false;
      } else if (arg.rfind("--report=", 0) == 0) {
        o.report_path = arg.substr(9);
      } else if (arg.rfind("--threads=", 0) == 0) {
        std::string_view list = arg.substr(10);
        while (!list.empty()) {
          const std::size_t comma = list.find(',');
          const std::string tok{list.substr(0, comma)};
          if (!tok.empty()) {
            o.threads.push_back(
                static_cast<std::uint32_t>(std::strtoul(tok.c_str(),
                                                        nullptr, 10)));
          }
          if (comma == std::string_view::npos) break;
          list.remove_prefix(comma + 1);
        }
      } else if (arg.rfind("--shards=", 0) == 0) {
        o.shards = static_cast<std::uint32_t>(
            std::strtoul(std::string{arg.substr(9)}.c_str(), nullptr, 10));
      } else if (arg == "--telemetry") {
        o.telemetry = true;
      } else if (arg.rfind("--telemetry-window-ms=", 0) == 0) {
        o.telemetry_window_ms =
            std::strtod(std::string{arg.substr(22)}.c_str(), nullptr);
      } else if (arg.rfind("--trace-out=", 0) == 0) {
        o.trace_out = arg.substr(12);
      } else if (arg.rfind("--adaptive-lookahead=", 0) == 0) {
        o.adaptive_lookahead =
            std::strtoul(std::string{arg.substr(21)}.c_str(), nullptr, 10) !=
            0;
      } else if (arg.rfind("--scenario=", 0) == 0) {
        o.scenario = arg.substr(11);
      } else if (arg.rfind("--ues=", 0) == 0) {
        o.ues = std::strtoull(std::string{arg.substr(6)}.c_str(), nullptr, 10);
      }
    }
    return o;
  }

  /// The sampling window --telemetry arms, or zero when it is off.
  [[nodiscard]] SimTime telemetry_window() const {
    if (!telemetry || telemetry_window_ms <= 0) return SimTime{};
    return SimTime::nanoseconds(
        static_cast<std::int64_t>(telemetry_window_ms * 1e6));
  }

  /// The shard count the sharded rows actually run with.
  [[nodiscard]] std::uint32_t effective_shards() const {
    if (shards != 0) return shards;
    std::uint32_t max_threads = 1;
    for (const std::uint32_t t : threads) max_threads = std::max(max_threads, t);
    return max_threads;
  }
};

/// Resolve --scenario= for a bench: nullptr when the flag is unset (run
/// the built-in workload), the ScenarioInfo when the name is known, and a
/// hard exit(2) listing every valid name otherwise — a typo must never
/// silently run the default workload.
inline const traffic::ScenarioInfo* require_scenario(
    const std::string& name) {
  if (name.empty()) return nullptr;
  const traffic::ScenarioInfo* info = traffic::find_scenario(name);
  if (info == nullptr) {
    std::fprintf(stderr, "%s\n",
                 traffic::unknown_scenario_error(name).c_str());
    std::exit(2);
  }
  return info;
}

/// Echo the scenario identity and generation parameters into a report's
/// config (schema v4: validate_report.py checks the shape).
inline void echo_scenario_config(obs::Json& config,
                                 const traffic::ScenarioInfo& info,
                                 const traffic::ScenarioRequest& req) {
  obs::Json& s = config["scenario"];
  s["name"] = info.name;
  s["preattach"] = info.preattach;
  s["target_pps"] = req.target_pps;
  s["duration_ms"] = req.duration.sec() * 1e3;
  s["population"] = req.population;
  s["regions"] = static_cast<std::int64_t>(req.regions);
  s["seed"] = req.seed;
}

/// Attach the offered-arrival accounting of a generated scenario to a
/// report row (schema v4): "arrivals" (total + per-class counts) and
/// "arrival_series" (windowed offered-arrival counts over the generation
/// window — the workload's shape, independent of how the system fared).
inline void attach_arrivals(obs::Json& row,
                            const traffic::GeneratedTraffic& traffic,
                            SimTime duration, std::size_t windows = 32) {
  obs::Json& arrivals = row["arrivals"];
  arrivals["total"] = traffic.total();
  obs::Json& per_class = arrivals["per_class"];
  per_class.make_object();
  for (const traffic::ClassArrivals& c : traffic.per_class) {
    per_class[c.name] = c.count;
  }
  obs::Json& series = row["arrival_series"];
  const std::int64_t window_ns = std::max<std::int64_t>(
      1, duration.ns() / static_cast<std::int64_t>(windows));
  series["window_ms"] = static_cast<double>(window_ns) / 1e6;
  std::vector<std::uint64_t> counts(windows, 0);
  for (const trace::TraceRecord& rec : traffic.records) {
    const auto w = static_cast<std::size_t>(
        std::min<std::int64_t>(static_cast<std::int64_t>(windows) - 1,
                               rec.at.ns() / window_ns));
    ++counts[w];
  }
  obs::Json& points = series["points"];
  points.make_array();
  for (std::size_t w = 0; w < windows; ++w) {
    obs::Json& p = points.push_back(obs::Json{});
    p.make_array();
    p.push_back(static_cast<double>(static_cast<std::int64_t>(w) *
                                    window_ns) /
                1e6);
    p.push_back(counts[w]);
  }
}

/// Structured experiment export (ISSUE: one code path for every bench).
///
/// Prints the legacy TSV rows unchanged (summarize_bench.py keeps
/// working) and accumulates a versioned JSON document — figure identity,
/// per-row percentile tables, the full counter registry, and the latency
/// decomposition when the experiment ran with cfg.trace_decomposition —
/// written to stdout or --report=PATH / $NEUTRINO_REPORT on finish().
class Report {
 public:
  Report(int argc, char** argv, const char* figure, const char* title,
         const char* paper_claim)
      : Report(figure, title, paper_claim, BenchOptions::parse(argc, argv)) {}

  Report(const char* figure, const char* title, const char* paper_claim,
         BenchOptions opts)
      : figure_(figure), opts_(std::move(opts)) {
    print_header(figure, title, paper_claim);
    doc_["schema"] = obs::kBenchReportSchema;
    doc_["version"] = obs::kBenchReportVersion;
    doc_["figure"] = figure;
    doc_["title"] = title;
    doc_["paper_claim"] = paper_claim;
    doc_["smoke"] = opts_.smoke;
    doc_["config"].make_object();
    doc_["rows"].make_array();
  }

  ~Report() { finish(); }
  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;

  [[nodiscard]] bool smoke() const { return opts_.smoke; }
  [[nodiscard]] bool decompose() const { return opts_.decompose; }
  [[nodiscard]] const BenchOptions& options() const { return opts_; }
  /// Bench-specific configuration block (rates, topology, policy knobs).
  obs::Json& config() { return doc_["config"]; }

  /// Print the standard TSV percentile row AND record it in the report.
  /// Pass the experiment result to attach its counters/decomposition.
  void add_pct_row(std::string_view system_name, double x,
                   const LatencyRecorder& pct,
                   const ExperimentResult* result = nullptr,
                   const char* pct_label = "pct_ms") {
    print_pct_row(figure_, system_name, x, pct);
    obs::Json& row = new_row(system_name);
    row["x"] = x;
    row[pct_label] = obs::summary_json(pct);
    if (result) attach_result(row, *result);
  }

  /// Start a custom row (benches with their own TSV printf keep it and
  /// fill the JSON here).
  obs::Json& new_row(std::string_view system_name) {
    obs::Json& row = doc_["rows"].push_back(obs::Json{});
    row["system"] = system_name;
    // Schema v2: every row declares its execution mode. attach_result
    // overwrites this for sharded-runtime results.
    row["mode"] = "single-thread";
    return row;
  }

  /// Counters, gauges, decomposition and occupancy series of a result.
  static void attach_result(obs::Json& row, const ExperimentResult& result) {
    const obs::Registry& reg = result.metrics.registry;
    row["sim_seconds"] = result.sim_seconds;
    const bool sharded = !result.shard_events.empty();
    row["mode"] = sharded ? "sharded" : "single-thread";
    if (sharded) {
      row["shards"] = result.shards;
      row["threads"] = result.threads;
      row["windows"] = result.windows;
      row["cross_shard_messages"] = result.cross_shard_messages;
      row["adaptive_extensions"] = result.adaptive_extensions;
      row["dispatches_skipped"] = result.dispatches_skipped;
      obs::Json& per_shard = row["shard_events"];
      per_shard.make_array();
      for (const std::uint64_t e : result.shard_events) per_shard.push_back(e);
    }
    row["counters"] = obs::counters_json(reg);
    obs::Json gauges = obs::gauges_json(reg);
    if (gauges.size() > 0) row["gauges"] = std::move(gauges);
    obs::Json decomp = decomposition_json(reg);
    if (!decomp.is_null()) row["decomposition_ms"] = std::move(decomp);
    obs::Json series = obs::time_series_json(reg);
    if (series.size() > 0) row["time_series"] = std::move(series);
    // Schema v3 telemetry sections — present only when the run armed them.
    obs::Json windowed = obs::windowed_series_json(reg);
    if (windowed["series"].size() > 0) row["timeseries"] = std::move(windowed);
    if (const obs::SloTracker* slo = result.metrics.slo();
        slo != nullptr && slo->any_samples()) {
      row["slo"] = slo->json();
    }
  }

  /// Wall-clock phase shares for a sharded run (schema v3 "profiler"
  /// section). Deliberately a separate call, never folded into
  /// attach_result: the numbers are machine- and thread-count-dependent,
  /// and determinism tests must be able to compare everything else.
  static void attach_profiler(obs::Json& row, const obs::PhaseProfiler& p) {
    row["profiler"] = p.json();
  }

  /// Regroup the "core.pct_decomp_ms{component=..,proc=..}" histograms as
  /// {proc: {component: {mean, p50, ...}}}; null when no tracer ran.
  static obs::Json decomposition_json(const obs::Registry& reg) {
    obs::Json decomp;
    constexpr std::string_view kPrefix = "core.pct_decomp_ms{";
    reg.for_each_histogram([&](const std::string& key,
                               const LatencyRecorder& h) {
      if (key.rfind(kPrefix, 0) != 0 || key.back() != '}') return;
      // Parse "component=X,proc=Y" (labels are sorted in the key).
      std::string_view labels{key};
      labels.remove_prefix(kPrefix.size());
      labels.remove_suffix(1);
      std::string component, proc;
      while (!labels.empty()) {
        const std::size_t comma = labels.find(',');
        const std::string_view pair = labels.substr(0, comma);
        const std::size_t eq = pair.find('=');
        if (eq != std::string_view::npos) {
          const std::string_view k = pair.substr(0, eq);
          const std::string_view v = pair.substr(eq + 1);
          if (k == "component") component = std::string{v};
          if (k == "proc") proc = std::string{v};
        }
        if (comma == std::string_view::npos) break;
        labels.remove_prefix(comma + 1);
      }
      if (component.empty() || proc.empty()) return;
      decomp[proc][component] = obs::summary_json(h);
    });
    return decomp;
  }

  /// Write the JSON document (idempotent; also run by the destructor).
  void finish() {
    if (finished_) return;
    finished_ = true;
    const std::string out = doc_.dump(2);
    if (opts_.report_path.empty()) {
      std::printf("%s", out.c_str());
      return;
    }
    if (FILE* f = std::fopen(opts_.report_path.c_str(), "w")) {
      std::fwrite(out.data(), 1, out.size(), f);
      std::fclose(f);
      std::printf("# report: %s\n", opts_.report_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write report to %s\n",
                   opts_.report_path.c_str());
    }
  }

 private:
  const char* figure_;
  BenchOptions opts_;
  obs::Json doc_;
  bool finished_ = false;
};

}  // namespace neutrino::bench
