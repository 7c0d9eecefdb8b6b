// The two simulator workloads, driven through traffic::generate_scenario
// and core::ShardedSystem with every performance knob at its library
// default.
//
//   storm              ~300k UEs: a legacy-bursty attach wave over
//                      n/16667+1 s, then one service request per UE 5 s
//                      later. Neutrino policy, 4 regions on 4 shards,
//                      4 worker threads.
//   mobility-failover  100k preattached UEs on commuter-crossing over the
//                      4x4 geohash grid, 2000 pps for 120 simulated s; the
//                      primary CPFs of regions {0,1,8,9} crash at 20% of
//                      the run and restore at 35%. Telemetry armed at
//                      100 ms windows. 1 shard, 1 thread.
//
// A repetition sets up (generate, build, preattach, replay), runs to the
// horizon and merges the shards' metrics. Variant 0 is the measured
// configuration; the traced run adds variant 1 (the same with the phase
// profiler attached) and variant 2 (storm: one worker thread; mobility:
// telemetry off).
#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "common/hashing.hpp"
#include "common/rng.hpp"
#include "core/sharded_system.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "traffic/scenario.hpp"

namespace neutrino::perfbench {
namespace {

// The record type is whatever the traffic engine emits, so the benchmark
// names no type of the older trace generators.
using Records = decltype(traffic::GeneratedTraffic{}.records);
using Record = Records::value_type;
using PT = core::ProcedureType;

enum class Kind { kStorm, kMobility };

constexpr std::uint64_t kStormUes = 300'000;
constexpr double kStormPps = 16'667;
constexpr std::uint64_t kMobilityUes = 100'000;
constexpr double kMobilityPps = 2'000;
constexpr SimTime kMobilityDuration = SimTime::seconds(120);
constexpr SimTime kSamplePeriod = SimTime::milliseconds(100);

struct Variant {
  const char* label;
  std::uint32_t threads;
  bool telemetry;
  bool profiled;
};

struct Spec {
  Kind kind;
  core::TopologyConfig topo;
  std::uint32_t shards;
  SimTime drain;  // run this long past the last arrival
  std::vector<Variant> variants;
};

std::optional<Spec> find_spec(std::string_view name) {
  if (name == "storm") {
    Spec s{Kind::kStorm, {}, 4, SimTime::seconds(30), {}};
    s.topo.l1_per_l2 = 4;  // 4 regions, one per shard
    s.variants = {{"untraced", 4, false, false},
                  {"traced", 4, false, true},
                  {"traced-1-thread", 1, false, true}};
    return s;
  }
  if (name == "mobility-failover") {
    Spec s{Kind::kMobility, {}, 1, SimTime::seconds(10), {}};
    s.topo.l2_regions = 4;
    s.topo.l1_per_l2 = 4;  // 4x4 geohash grid
    s.variants = {{"untraced", 1, true, false},
                  {"traced", 1, true, true},
                  {"traced-no-telemetry", 1, false, true}};
    return s;
  }
  return std::nullopt;
}

/// Per-procedure SLO targets in PCT ms, as the repo's benches arm them.
std::vector<std::pair<PT, obs::SloTarget>> slo_targets() {
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

/// The (at, ue, type) order the traffic engine sorts its streams by.
bool record_before(const Record& a, const Record& b) {
  if (a.at != b.at) return a.at < b.at;
  if (a.ue.value() != b.ue.value()) return a.ue.value() < b.ue.value();
  return a.type < b.type;
}

Records generate(const Spec& spec, std::uint64_t seed) {
  traffic::ScenarioRequest req;
  req.regions = spec.topo.total_regions();
  req.seed = seed;
  if (spec.kind == Kind::kMobility) {
    req.target_pps = kMobilityPps;
    req.duration = kMobilityDuration;
    req.population = kMobilityUes;
    req.shard_blocks = spec.shards;
    auto gen = traffic::generate_scenario("commuter-crossing", req);
    return std::move(gen->records);
  }
  // Storm: the attach wave, then one service request per UE spread over
  // an equally long second wave.
  const SimTime window =
      SimTime::seconds(static_cast<std::int64_t>(kStormUes / 16'667 + 1));
  req.target_pps = kStormPps;
  req.duration = window;
  req.population = kStormUes;
  auto gen = traffic::generate_scenario("legacy-bursty", req);
  Records t = std::move(gen->records);
  const std::size_t n_attach = t.size();
  t.reserve(n_attach + kStormUes);
  Rng rng(hash_combine(seed, 0x5e4e1ce));
  const SimTime base = window + SimTime::seconds(5);
  for (std::uint64_t ue = 0; ue < kStormUes; ++ue) {
    Record rec;
    rec.at = base + SimTime::nanoseconds(static_cast<std::int64_t>(
                        rng.next_double() * static_cast<double>(window.ns())));
    rec.ue = UeId(ue);
    rec.type = PT::kServiceRequest;
    t.push_back(rec);
  }
  std::sort(t.begin() + static_cast<std::ptrdiff_t>(n_attach), t.end(),
            record_before);
  return t;
}

/// A tail percentile must have at least ten samples beyond it; a sample
/// too small for `q` reports 0.
double tail(const LatencyRecorder& r, double q) {
  if (r.empty() || static_cast<double>(r.count()) * (1.0 - q) < 10.0) {
    return 0.0;
  }
  return r.percentile(q);
}

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  static_assert(sizeof u == sizeof v);
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// A hash over events, windows, cross-shard messages, every registry
/// counter, the CTA log peak and the bit pattern of every PCT sample.
std::string fingerprint(const core::Metrics& m, std::uint64_t events,
                        std::uint64_t windows, std::uint64_t cross) {
  std::uint64_t h = fnv1a64("perfbench-sim");
  auto mix = [&h](std::uint64_t v) { h = hash_combine(h, v); };
  mix(events);
  mix(windows);
  mix(cross);
  m.registry.for_each_counter([&](const std::string& key, const auto& c) {
    mix(fnv1a64(key));
    mix(c.value());
  });
  mix(m.cta_log_peak_bytes);
  for (const LatencyRecorder& r : m.pct) {
    const std::size_t n = r.count();
    mix(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double q = n == 1 ? 0.0
                              : static_cast<double>(i) /
                                    static_cast<double>(n - 1);
      mix(bits(r.percentile(q)));
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
  return hex;
}

/// The core layer's simulated per-layer values (exact).
obs::Json core_values(core::ShardedSystem& sys, const Spec& spec,
                      const core::Metrics& m) {
  obs::Json c;
  const auto count = [](const obs::Counter& k) {
    return static_cast<double>(k.value());
  };
  const auto share = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  c["core.log_appends"] = count(m.log_appends);
  c["core.log_prunes"] = count(m.log_prunes);
  c["core.replays"] = count(m.replays);
  c["core.cta_log_peak_bytes"] = static_cast<double>(m.cta_log_peak_bytes);
  c["core.checkpoints_sent"] = count(m.checkpoints_sent);
  c["core.checkpoint_ack_share"] =
      share(count(m.checkpoint_acks), count(m.checkpoints_sent));
  c["core.state_fetches"] = count(m.state_fetches);
  c["core.fast_handovers"] = count(m.fast_handovers);
  c["core.fast_handover_share"] =
      share(count(m.fast_handovers),
            count(m.fast_handovers) + count(m.state_fetches));
  c["core.reattaches"] = count(m.reattaches);
  c["core.outdated_notifies"] = count(m.outdated_notifies);
  // CPF service demand and queue high-watermark over the CPFs each shard
  // owns (the shadow copies on other shards do no work).
  double busy_ms = 0;
  std::size_t peak_depth = 0;
  for (std::uint32_t s = 0; s < sys.shards(); ++s) {
    core::System& shard = sys.system(s);
    for (int id = 0; id < spec.topo.total_cpfs(); ++id) {
      const CpfId cpf(static_cast<std::uint32_t>(id));
      if (!shard.owns_region(spec.topo.region_of_cpf(cpf))) continue;
      busy_ms += static_cast<double>(shard.cpf(cpf).request_busy_time().ns()) /
                 1e6;
      peak_depth = std::max(peak_depth, shard.cpf(cpf).request_peak_depth());
    }
  }
  c["core.cpf_busy_ms"] = busy_ms;
  c["core.cpf_peak_depth"] = static_cast<double>(peak_depth);
  const LatencyRecorder& attach = m.pct[static_cast<std::size_t>(PT::kAttach)];
  const LatencyRecorder& ho = m.pct[static_cast<std::size_t>(PT::kHandover)];
  c["core.attach_pct_p50_ms"] = attach.empty() ? 0.0 : attach.median();
  c["core.attach_pct_p99.99_ms"] = tail(attach, 0.9999);
  c["core.handover_pct_p50_ms"] = ho.empty() ? 0.0 : ho.median();
  c["core.handover_pct_p99.9_ms"] = tail(ho, 0.999);
  c["core.reattach_share"] =
      share(count(m.reattaches), count(m.procedures_completed));
  return c;
}

}  // namespace

obs::Json run_sim_repetition(const Options& opts,
                             const PinnedCostModel& costs) {
  const std::optional<Spec> found = find_spec(opts.workload);
  if (!found || opts.variant < 0 ||
      opts.variant >= static_cast<int>(found->variants.size())) {
    return nullptr;
  }
  const Spec& spec = *found;
  const Variant& v = spec.variants[static_cast<std::size_t>(opts.variant)];
  SpanLog spans(opts.trace);
  SpanLog::Scope root(spans, opts.workload);
  obs::Json out;
  out["variant"] = v.label;
  out["threads"] = v.threads;
  out["telemetry"] = v.telemetry;

  SpanLog::Scope gen_span(spans, "traffic.generate");
  const Records records = generate(spec, opts.seed);
  out["generate_s"] = gen_span.stop();
  out["records"] = static_cast<std::uint64_t>(records.size());

  SpanLog::Scope build_span(spans, "core.build");
  core::ShardedSystem::Config cfg;
  cfg.policy = core::neutrino_policy();
  cfg.topo = spec.topo;
  cfg.shards = spec.shards;
  cfg.threads = v.threads;
  auto sys = std::make_unique<core::ShardedSystem>(cfg, costs);
  out["build_s"] = build_span.stop();

  const auto regions = static_cast<std::uint32_t>(spec.topo.total_regions());
  double preattach_s = 0;
  if (spec.kind == Kind::kMobility) {
    SpanLog::Scope pre_span(spans, "core.preattach");
    for (std::uint64_t ue = 0; ue < kMobilityUes; ++ue) {
      sys->preattach(UeId(ue), static_cast<std::uint32_t>(ue % regions));
    }
    preattach_s = pre_span.stop();
  }
  out["preattach_s"] = preattach_s;

  SpanLog::Scope replay_span(spans, "core.replay");
  sys->replay(records);
  const SimTime horizon = records.back().at + spec.drain;
  if (spec.kind == Kind::kMobility) {
    // fig_mobility's plan: the primary CPF (for UE 0) of two regions in
    // each half of the grid dies as the commute wave peaks and comes back
    // empty mid-wave, so later crossings into it take the StateFetch path.
    const SimTime crash_at = SimTime::nanoseconds(kMobilityDuration.ns() / 5);
    const SimTime restore_at =
        SimTime::nanoseconds(kMobilityDuration.ns() * 7 / 20);
    for (const std::uint32_t region :
         {0u, 1u, regions / 2, regions / 2 + 1}) {
      const CpfId cpf = sys->system(sys->shard_of_region(region))
                            .primary_cpf_for(UeId{0}, region);
      sys->schedule_crash(crash_at, cpf);
      sys->schedule_restore(restore_at, cpf);
    }
  }
  if (v.telemetry) {
    sys->arm_telemetry(kSamplePeriod, horizon);
    sys->arm_slo(kSamplePeriod, slo_targets());
  }
  // CTA log occupancy is known only where it is sampled: every 100 ms.
  // Shard 0's sampler also stamps the host clock, cutting run_until into
  // 100-ms simulated slices that do identical work in every repetition of
  // a seed (run.py times each slice by its fastest repetition).
  auto stamps = std::make_shared<std::vector<Clock::time_point>>();
  stamps->reserve(static_cast<std::size_t>(horizon.ns() /
                                           kSamplePeriod.ns()) + 2);
  for (std::uint32_t s = 0; s < sys->shards(); ++s) {
    core::System* shard = &sys->system(s);
    auto stamp = s == 0 ? stamps : nullptr;
    obs::PeriodicSampler::schedule(shard->loop(), kSamplePeriod, horizon,
                                   [shard, stamp] {
                                     shard->sample_log_sizes();
                                     if (stamp) {
                                       stamp->push_back(Clock::now());
                                     }
                                   });
  }
  out["replay_s"] = replay_span.stop();

  std::optional<obs::PhaseProfiler> profiler;
  if (v.profiled) {
    profiler.emplace(std::max<std::size_t>(spec.shards, v.threads));
    sys->set_profiler(&*profiler);
  }
  SpanLog::Scope run_span(spans, "sim.run_until");
  stamps->push_back(Clock::now());
  sys->run_until(horizon);
  stamps->push_back(Clock::now());
  out["run_s"] = run_span.stop();
  obs::Json& slices = out["slice_s"];
  slices.make_array();
  for (std::size_t i = 1; i < stamps->size(); ++i) {
    slices.push_back(
        std::chrono::duration<double>((*stamps)[i] - (*stamps)[i - 1])
            .count());
  }
  sys->set_profiler(nullptr);
  if (profiler) {
    double lanes = 0;
    for (std::size_t p = 0; p < obs::kPhases; ++p) {
      const auto phase = static_cast<obs::Phase>(p);
      const double s = static_cast<double>(profiler->total_ns(phase)) / 1e9;
      out[std::string("phase.") + obs::phase_name(phase) + "_s"] = s;
      lanes += s;
    }
    out["phase.lanes_s"] = lanes;
  }

  SpanLog::Scope merge_span(spans, "core.merged_metrics");
  const core::Metrics m = sys->merged_metrics();
  out["merge_s"] = merge_span.stop();

  const std::uint64_t events = sys->events_executed();
  const std::uint64_t windows = sys->stats().windows;
  const std::uint64_t cross = sys->stats().cross_messages;
  out["events"] = events;
  out["windows"] = windows;
  out["cross_messages"] = cross;
  const std::vector<std::uint64_t> per_shard = sys->shard_events();
  out["shard_imbalance"] =
      events == 0 ? 0.0
                  : static_cast<double>(*std::max_element(per_shard.begin(),
                                                          per_shard.end())) *
                        static_cast<double>(per_shard.size()) /
                        static_cast<double>(events);
  out["started"] = m.procedures_started.value();
  out["completed"] = m.procedures_completed.value();
  out["ryw_violations"] = m.ryw_violations.value();
  out["core"] = core_values(*sys, spec, m);
  const auto samples = [&m](PT type) {
    return static_cast<std::uint64_t>(
        m.pct[static_cast<std::size_t>(type)].count());
  };
  out["attach_samples"] = samples(PT::kAttach);
  out["handover_samples"] = samples(PT::kHandover);
  out["fingerprint"] = fingerprint(m, events, windows, cross);
  out["peak_rss_mb"] = peak_rss_mib();
  root.stop();
  if (opts.trace) out["spans"] = spans.json();
  return out;
}

}  // namespace neutrino::perfbench
