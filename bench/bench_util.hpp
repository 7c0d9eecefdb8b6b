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
#include <initializer_list>
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
#include "traffic/scenario.hpp"

namespace neutrino::bench {

namespace detail {
/// Set once measured_costs() has built the model, so that a Report echoes
/// the table only for benches whose simulator read it (the codec benches
/// time the codecs themselves and never build it).
inline bool costs_measured = false;
}  // namespace detail

/// The real-codec cost model, measured once per bench binary.
inline const core::MeasuredCostModel& measured_costs() {
  static const core::MeasuredCostModel model;
  detail::costs_measured = true;
  return model;
}

/// The cost table a run simulated with, as a report's config "cost_model"
/// (schema v7): the calibration anchor (scale, base_ns) and, per wire
/// format and message kind, the service time and encoded size the
/// simulator charges. Kind "state" is the checkpoint payload (its
/// serialize time and size).
inline obs::Json cost_model_json(const core::MeasuredCostModel& costs) {
  obs::Json j;
  j["scale"] = costs.scale();
  j["base_ns"] = costs.base().ns();
  obs::Json& formats = j["formats"];
  for (const ser::WireFormat f : ser::kAllWireFormats) {
    obs::Json& kinds = formats[ser::to_string(f)];
    for (std::size_t k = 0;
         k <= static_cast<std::size_t>(core::MsgKind::kOutdatedNotify); ++k) {
      const auto kind = static_cast<core::MsgKind>(k);
      obs::Json& e = kinds[core::to_string(kind)];
      e["service_ns"] = costs.processing_time(f, kind).ns();
      e["bytes"] = costs.encoded_size(f, kind);
    }
    obs::Json& state = kinds["state"];
    state["service_ns"] = costs.state_serialize_time(f).ns();
    state["bytes"] = costs.state_encoded_size(f);
  }
  return j;
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
  /// Partitioning, conservative-window and cross-shard traffic figures.
  /// Report rows show them only for multi-shard runs (attach_result).
  std::uint32_t shards = 1;
  std::uint32_t threads = 1;
  std::uint64_t windows = 0;
  std::uint64_t cross_shard_messages = 0;
  /// Shard-windows skipped because the shard had nothing due in them.
  std::uint64_t dispatches_skipped = 0;
  std::vector<std::uint64_t> shard_events;
  /// Retained for --trace-out export when the run traced (null otherwise).
  std::unique_ptr<obs::ProcTracer> tracer;
  /// Per-window shard activity (runs with record_trace_events): the
  /// Perfetto shard tracks.
  std::vector<obs::ShardWindowRecord> window_log;
  /// Live heap once the loops drain, before the system tears down
  /// (obs::heap_in_use_bytes). Per run, unlike the RSS watermark, which
  /// reads no growth for a run that stays under an earlier run's peak.
  std::size_t heap_in_use_bytes = 0;
  /// Capacity census of the nodes' hash tables at the same point.
  core::TableBytes table_bytes{};
};

struct ExperimentConfig {
  core::CorePolicy policy;
  core::TopologyConfig topo;
  core::ProtocolConfig proto;
  /// Partition the topology across this many conservatively-synchronized
  /// shards, executed by `threads` workers (DESIGN.md §11). Outcomes are
  /// deterministic for a fixed shard count whatever the thread count; one
  /// shard is the single-loop reference run.
  std::uint32_t shards = 1;
  std::uint32_t threads = 1;
  /// Pre-attach this many UEs (ids [0, n)) round-robin across regions.
  std::uint64_t preattached_ues = 0;
  /// Run this long past the last scheduled arrival.
  SimTime drain = SimTime::seconds(30);
  /// Attach a decomposition tracer for the run: every completed
  /// procedure's latency is split by hop class into the result registry's
  /// "core.pct_decomp_ms{component=..,proc=..}" histograms (components
  /// tile the PCT exactly; "total" is recorded alongside). Off by
  /// default — tracing then costs one null test per hop site. A tracer
  /// is single-threaded, so it attaches to one-shard runs only.
  bool trace_decomposition = false;
  /// Constant-memory PCT accounting (streaming mean/max, no retained
  /// samples) for storm-scale runs; percentile queries are then invalid.
  bool streaming_pct = false;
  /// Arm the deep-telemetry layer (DESIGN.md §15) at this sim-time
  /// cadence: windowed series plus per-procedure SLO burn tracking,
  /// exported as the row's "timeseries"/"slo" sections. Zero (default) =
  /// fully off — the run does not even schedule sampling ticks.
  SimTime telemetry_window;
  /// Log per-window shard activity for Perfetto export; one-shard runs
  /// also retain hop-event timelines (slowest + failed spans).
  bool record_trace_events = false;
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

/// Build a ShardedSystem, replay a trace, run to completion, return the
/// merged metrics. `setup(sys)` runs before the replay (failure injection,
/// samplers, profiler); `post(sys)` runs after the loops drain and before
/// the shards' metrics merge (outage queries, final samples). One-shard
/// hooks reach System-only calls through sys.system(0).
template <typename SetupFn, typename PostFn>
ExperimentResult run_experiment(const ExperimentConfig& cfg,
                                const std::vector<traffic::TraceRecord>& t,
                                SetupFn&& setup, PostFn&& post) {
  core::ShardedSystem::Config scfg;
  scfg.policy = cfg.policy;
  scfg.topo = cfg.topo;
  scfg.proto = cfg.proto;
  scfg.shards = cfg.shards;
  scfg.threads = cfg.threads;
  scfg.streaming_pct = cfg.streaming_pct;
  core::ShardedSystem sys(scfg, measured_costs());
  std::unique_ptr<obs::ProcTracer> tracer;
  if (cfg.shards == 1 &&
      (cfg.trace_decomposition || cfg.record_trace_events)) {
    obs::TracerConfig tc;
    tc.record_events = cfg.record_trace_events;
    tc.keep_slowest = cfg.record_trace_events ? 16 : 8;
    tc.keep_failed = cfg.record_trace_events ? 16 : 0;
    tracer = std::make_unique<obs::ProcTracer>(
        tc, cfg.trace_decomposition ? &sys.metrics(0).registry : nullptr);
    sys.attach_tracer(0, *tracer);
  }
  if (cfg.record_trace_events) sys.enable_window_log();
  const auto regions = static_cast<std::uint32_t>(cfg.topo.total_regions());
  for (std::uint64_t ue = 0; ue < cfg.preattached_ues; ++ue) {
    sys.preattach(UeId(ue), static_cast<std::uint32_t>(ue % regions));
  }
  setup(sys);
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
  const std::size_t heap = obs::heap_in_use_bytes();
  post(sys);
  ExperimentResult result{sys.merged_metrics(), horizon.sec(),
                          sys.events_executed(), wall_seconds, cfg.shards,
                          cfg.threads};
  result.windows = sys.stats().windows;
  result.cross_shard_messages = sys.stats().cross_messages;
  result.dispatches_skipped = sys.stats().dispatches_skipped;
  result.shard_events = sys.shard_events();
  result.heap_in_use_bytes = heap;
  result.table_bytes = sys.table_bytes();
  result.tracer = std::move(tracer);
  for (const auto& w : sys.window_log()) {
    result.window_log.push_back(
        obs::ShardWindowRecord{w.start, w.end, w.cross_messages, w.executed});
  }
  return result;
}

template <typename SetupFn>
ExperimentResult run_experiment(const ExperimentConfig& cfg,
                                const std::vector<traffic::TraceRecord>& t,
                                SetupFn&& setup) {
  return run_experiment(cfg, t, std::forward<SetupFn>(setup),
                        [](core::ShardedSystem&) {});
}

inline ExperimentResult run_experiment(
    const ExperimentConfig& cfg, const std::vector<traffic::TraceRecord>& t) {
  return run_experiment(cfg, t, [](core::ShardedSystem&) {});
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
  /// --threads=1,2,8: worker-thread counts for the multi-shard rows of
  /// benches that support them (scale_throughput). Empty = one-shard rows
  /// only.
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
  /// --scenario=NAME: drive the bench with a named traffic-engine
  /// scenario (src/traffic/scenario.hpp) instead of its built-in
  /// workload. Empty (default) keeps the built-in workload byte-for-byte.
  /// Unknown names are a hard error (require_scenario exits 2).
  std::string scenario;
  /// --ues=N: override the bench's UE population (0 = bench default).
  /// Lets the CI scenario stage run every scenario at small scale.
  std::uint64_t ues = 0;

  /// Parse the shared flags. Any other argument exits 2 naming it, so a
  /// typo never silently runs the default configuration; a bench with
  /// flags of its own passes their prefixes (e.g. "--seeds=") as
  /// `own_flags` and parses them itself.
  static BenchOptions parse(
      int argc, char** argv,
      std::initializer_list<std::string_view> own_flags = {}) {
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
      } else if (arg.rfind("--scenario=", 0) == 0) {
        o.scenario = arg.substr(11);
      } else if (arg.rfind("--ues=", 0) == 0) {
        o.ues = std::strtoull(std::string{arg.substr(6)}.c_str(), nullptr, 10);
      } else if (std::none_of(own_flags.begin(), own_flags.end(),
                              [arg](std::string_view flag) {
                                return arg.rfind(flag, 0) == 0;
                              })) {
        std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
        std::exit(2);
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
  for (const traffic::TraceRecord& rec : traffic.records) {
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
    // overwrites this for multi-shard results.
    row["mode"] = "single-thread";
    return row;
  }

  /// Counters, gauges, decomposition and occupancy series of a result.
  static void attach_result(obs::Json& row, const ExperimentResult& result) {
    const obs::Registry& reg = result.metrics.registry;
    row["sim_seconds"] = result.sim_seconds;
    const bool sharded = result.shards > 1;
    row["mode"] = sharded ? "sharded" : "single-thread";
    if (sharded) {
      row["shards"] = result.shards;
      row["threads"] = result.threads;
      row["windows"] = result.windows;
      row["cross_shard_messages"] = result.cross_shard_messages;
      row["dispatches_skipped"] = result.dispatches_skipped;
      obs::Json& per_shard = row["shard_events"];
      per_shard.make_array();
      for (const std::uint64_t e : result.shard_events) per_shard.push_back(e);
    }
    row["heap_in_use_bytes"] =
        static_cast<std::uint64_t>(result.heap_in_use_bytes);
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

  /// The run's table census as a row's "table_bytes": bytes per owner.
  static void attach_table_bytes(obs::Json& row,
                                 const ExperimentResult& result) {
    obs::Json& t = row["table_bytes"];
    t["frontend"] = static_cast<std::uint64_t>(result.table_bytes.frontend);
    t["cta"] = static_cast<std::uint64_t>(result.table_bytes.cta);
    t["cpf"] = static_cast<std::uint64_t>(result.table_bytes.cpf);
    t["upf"] = static_cast<std::uint64_t>(result.table_bytes.upf);
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
    if (detail::costs_measured) {
      config()["cost_model"] = cost_model_json(measured_costs());
    }
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
