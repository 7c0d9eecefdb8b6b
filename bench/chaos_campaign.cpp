// Chaos campaign driver: randomized failure schedules with an online
// invariant checker, run differentially on the 1-shard runtime (the
// single-loop reference) and a multi-shard multithreaded runtime.
//
// Per seed: generate a Schedule (workload + CPF crash bursts + targeted
// replica-set wipes + CTA crashes), run it on both runtimes, assert zero
// invariant violations, and assert the two runs agree exactly
// (started/completed/lost/recovery histogram/overload counters):
// partitioning may change where work ran, never what happened. A failing
// seed is shrunk to a minimal reproducer and dumped as a replayable JSON
// artifact whose path is printed in the error message.
//
// Modes:
//   --seeds=N        campaign size (default 500; --smoke = 50)
//   --overload=N     kOverload storms per schedule (default 2; 0 disables
//                    and restores pre-overload schedules byte-for-byte)
//   --churn=N        elastic churn drain/scale-out pairs per schedule
//                    (default 0, which keeps pre-elastic schedules
//                    byte-for-byte; churn draws come last in a schedule)
//   --shards=K       multi-shard row's shard count (default 4)
//   --threads=a,b    worker threads for the multi-shard row (max used)
//   --inject=stale|prune
//                    teeth check: plant a deliberate bug (stale RYW serve
//                    or unaccounted log prune), expect the checker to
//                    catch it and the shrinker to cut the reproducer to
//                    <= 10 events; exits non-zero if the bug survives.
//   --replay=FILE    re-run a dumped reproducer (exits 0 iff it still
//                    fails, i.e. the artifact reproduces).
//   --repro-dir=DIR  where reproducer artifacts are written (default ".")
//   --report=PATH    JSON campaign report (schema neutrino.chaos-campaign)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "chaos/generator.hpp"
#include "chaos/runner.hpp"
#include "chaos/shrink.hpp"

namespace {

using neutrino::SimTime;
namespace chaos = neutrino::chaos;
namespace core = neutrino::core;
namespace sim = neutrino::sim;
namespace bench = neutrino::bench;
namespace obs = neutrino::obs;
namespace traffic = neutrino::traffic;

/// --scenario=NAME: overlay a traffic-engine scenario onto a generated
/// schedule as plain kProcedure events (the generator's own failure and
/// overload actions are untouched — chaos::generate draws byte-identical
/// with or without the flag, so the same seed crashes the same CPFs at
/// the same instants; only the foreground workload changes).
void overlay_scenario(chaos::Schedule& s, const std::string& name,
                      const traffic::ScenarioRequest& req) {
  const auto gen = traffic::generate_scenario(name, req);
  s.events.reserve(s.events.size() + gen->records.size());
  for (const traffic::TraceRecord& rec : gen->records) {
    chaos::Event e;
    e.at = rec.at;
    e.kind = chaos::EventKind::kProcedure;
    e.ue = rec.ue.value();
    e.proc = rec.type;
    e.target_region = rec.target_region;
    s.events.push_back(e);
  }
  // Equal-timestamp order stays deterministic: generator events first
  // (their original order), then scenario arrivals (generation order).
  std::stable_sort(s.events.begin(), s.events.end(),
                   [](const chaos::Event& a, const chaos::Event& b) {
                     return a.at < b.at;
                   });
}

struct CampaignArgs {
  std::uint64_t seeds = 500;
  std::uint32_t overload_bursts = 2;  // kOverload storms per schedule
  std::uint32_t churn_events = 0;     // elastic drain/scale-out pairs
  std::string inject;      // "", "stale", "prune"
  std::string replay;      // reproducer path
  std::string repro_dir = ".";
};

CampaignArgs parse_campaign(int argc, char** argv, bool smoke) {
  CampaignArgs a;
  if (smoke) a.seeds = 50;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--seeds=", 0) == 0) {
      a.seeds = std::strtoull(std::string{arg.substr(8)}.c_str(), nullptr, 10);
    } else if (arg.rfind("--overload=", 0) == 0) {
      a.overload_bursts = static_cast<std::uint32_t>(
          std::strtoul(std::string{arg.substr(11)}.c_str(), nullptr, 10));
    } else if (arg.rfind("--churn=", 0) == 0) {
      a.churn_events = static_cast<std::uint32_t>(
          std::strtoul(std::string{arg.substr(8)}.c_str(), nullptr, 10));
    } else if (arg.rfind("--inject=", 0) == 0) {
      a.inject = std::string{arg.substr(9)};
    } else if (arg.rfind("--replay=", 0) == 0) {
      a.replay = std::string{arg.substr(9)};
    } else if (arg.rfind("--repro-dir=", 0) == 0) {
      a.repro_dir = std::string{arg.substr(12)};
    }
  }
  return a;
}

core::FaultInjection faults_for(const std::string& inject) {
  core::FaultInjection f;
  // A few charges so the first one being burned on an attach-type reply
  // (whose RYW check legitimately skips) cannot hide the bug.
  if (inject == "stale") f.cpf_stale_serves = 3;
  if (inject == "prune") f.cta_unaccounted_prunes = 3;
  return f;
}

std::string dump_artifact(const chaos::ScheduleArtifact& art,
                          const std::string& dir, const char* tag) {
  std::string path = dir + "/chaos_repro_" + tag + "_seed" +
                     std::to_string(art.schedule.seed) + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "chaos: cannot write reproducer to %s\n",
                 path.c_str());
    return path;
  }
  out << chaos::to_json(art).dump(2);
  return path;
}

/// Re-run a (minimal) failing schedule with the flight recorder armed and
/// write the merged ring next to the reproducer: `X.json` → `X.flight.json`.
/// The timeline of crashes/sheds/retransmissions leading up to the
/// violation ships with the artifact (DESIGN.md §15).
std::string write_flight_dump(const chaos::Schedule& s, chaos::RunConfig rc,
                              const core::CostModel& costs,
                              const std::string& repro_path) {
  rc.record_flight = true;
  const chaos::RunOutcome out = chaos::run_schedule(s, rc, costs);
  std::string path = repro_path;
  const std::string suffix = ".json";
  if (path.size() >= suffix.size() &&
      path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
    path.resize(path.size() - suffix.size());
  }
  path += ".flight.json";
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "chaos: cannot write flight dump to %s\n",
                 path.c_str());
    return path;
  }
  f << out.flight_json;
  return path;
}

/// Aggregates for one runtime configuration across the whole campaign.
struct RuntimeAgg {
  std::string name;
  chaos::RunConfig rc;
  std::uint64_t violations = 0;
  std::uint64_t lost = 0;
  std::uint64_t unquiesced = 0;
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  std::uint64_t attach_sheds = 0;
  std::uint64_t overload_drops = 0;
  std::uint64_t nas_retransmissions = 0;
  std::uint64_t retx_exhausted = 0;
  std::map<std::string, std::uint64_t> recoveries;

  void add(const chaos::RunOutcome& o) {
    violations += o.violation_count;
    lost += o.lost;
    if (!o.quiesced) ++unquiesced;
    started += o.started;
    completed += o.completed;
    attach_sheds += o.attach_sheds;
    overload_drops += o.overload_drops;
    nas_retransmissions += o.nas_retransmissions;
    retx_exhausted += o.retx_exhausted;
    for (const auto& [k, v] : o.recoveries) recoveries[k] += v;
  }
};

bool same_outcome(const chaos::RunOutcome& a, const chaos::RunOutcome& b) {
  return a.started == b.started && a.completed == b.completed &&
         a.lost == b.lost && a.violation_count == b.violation_count &&
         a.recoveries == b.recoveries && a.attach_sheds == b.attach_sheds &&
         a.overload_drops == b.overload_drops &&
         a.nas_retransmissions == b.nas_retransmissions &&
         a.retx_exhausted == b.retx_exhausted;
}

int run_replay(const CampaignArgs& args, const core::CostModel& costs) {
  std::ifstream in(args.replay);
  if (!in) {
    std::fprintf(stderr, "chaos: cannot open %s\n", args.replay.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const auto art = chaos::artifact_from_string(buf.str());
  if (!art) {
    std::fprintf(stderr, "chaos: %s is not a chaos-repro artifact\n",
                 args.replay.c_str());
    return 2;
  }
  chaos::RunConfig rc;
  rc.faults = art->faults;
  rc.record_flight = true;
  const chaos::RunOutcome out = chaos::run_schedule(art->schedule, rc, costs);
  std::printf(
      "chaos\treplay\tseed=%llu\tevents=%zu\tviolations=%llu\t"
      "flight_events=%llu\n",
      static_cast<unsigned long long>(art->schedule.seed),
      art->schedule.events.size(),
      static_cast<unsigned long long>(out.violation_count),
      static_cast<unsigned long long>(out.flight_events));
  for (const std::string& v : out.violations) {
    std::printf("#   %s\n", v.c_str());
  }
  // A reproducer artifact is, by construction, a failing schedule: the
  // replay "passes" when it still fails.
  return out.violation_count > 0 ? 0 : 1;
}

int run_teeth(const CampaignArgs& args, const core::CostModel& costs) {
  chaos::GeneratorConfig gen;
  gen.regions = 4;
  gen.ues = 12;
  gen.actions = 40;
  gen.failure_bursts = 2;
  gen.cta_crash_prob = 0.0;  // keep the teeth run about the planted bug
  chaos::RunConfig rc;
  rc.faults = faults_for(args.inject);
  if (rc.faults.cpf_stale_serves == 0 && rc.faults.cta_unaccounted_prunes == 0) {
    std::fprintf(stderr, "chaos: unknown --inject=%s (stale|prune)\n",
                 args.inject.c_str());
    return 2;
  }
  const auto fails = [&](const chaos::Schedule& trial) {
    return chaos::run_schedule(trial, rc, costs).violation_count > 0;
  };
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    chaos::Schedule s = chaos::generate(gen, seed);
    if (!fails(s)) continue;
    chaos::ShrinkStats st;
    const chaos::Schedule min = chaos::shrink_schedule(s, fails, 400, &st);
    const std::string path =
        dump_artifact({min, rc.faults}, args.repro_dir, args.inject.c_str());
    const std::string flight = write_flight_dump(min, rc, costs, path);
    std::printf(
        "chaos\tinject=%s\tseed=%llu\tcaught\tshrunk %zu -> %zu events "
        "(%zu runs)\treproducer=%s\tflight=%s\n",
        args.inject.c_str(), static_cast<unsigned long long>(seed),
        s.events.size(), min.events.size(), st.runs, path.c_str(),
        flight.c_str());
    if (min.events.size() > 10) {
      std::fprintf(stderr,
                   "chaos: FAIL: reproducer still has %zu events (> 10)\n",
                   min.events.size());
      return 1;
    }
    return 0;
  }
  std::fprintf(stderr,
               "chaos: FAIL: planted '%s' bug was not caught in 10 seeds\n",
               args.inject.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::BenchOptions::parse(
      argc, argv, {"--seeds=", "--overload=", "--churn=", "--inject=",
                   "--replay=", "--repro-dir="});
  const CampaignArgs args = parse_campaign(argc, argv, opts.smoke);
  const core::FixedCostModel costs;

  if (!args.replay.empty()) return run_replay(args, costs);
  if (!args.inject.empty()) return run_teeth(args, costs);

  const std::uint32_t shards = opts.shards != 0 ? opts.shards : 4;
  std::uint32_t threads = 2;
  for (const std::uint32_t t : opts.threads) threads = std::max(threads, t);

  chaos::GeneratorConfig gen;
  gen.regions = 8;  // blocks of 2 under 4 shards: CTA crashes stay legal
  gen.cpfs_per_region = 5;
  // 6 UEs per region: an overload storm (every idle UE of one region at
  // once) overflows overload_proto's capacity-4 queues, so storms really
  // shed and retransmit rather than slipping under the bound.
  gen.ues = 48;
  gen.shards = shards;
  gen.actions = 120;
  gen.failure_bursts = 6;
  gen.overload_bursts = args.overload_bursts;
  gen.churn_events = args.churn_events;

  // Scenario overlay parameters: the scenario replaces none of the
  // generated schedule — it adds a realistic foreground at roughly the
  // generator's own action rate, re-seeded per campaign seed.
  const traffic::ScenarioInfo* scen = bench::require_scenario(opts.scenario);
  traffic::ScenarioRequest screq;
  if (scen != nullptr) {
    screq.population = gen.ues;
    screq.regions = static_cast<int>(gen.regions);
    screq.duration = gen.window;
    screq.target_pps = static_cast<double>(gen.actions) / gen.window.sec();
  }

  std::printf("# chaos — randomized failure campaign\n");
  if (scen != nullptr) {
    std::printf("# scenario overlay: %s (~%.0f arrivals/s)\n",
                std::string(scen->name).c_str(), screq.target_pps);
  }
  std::printf(
      "# %llu seeds, %u regions x %u CPFs, %u UEs, %u overload storms, "
      "%u churn events; runtimes: sharded-1x1, sharded-%ux%u\n",
      static_cast<unsigned long long>(args.seeds), gen.regions,
      gen.cpfs_per_region, gen.ues, gen.overload_bursts, gen.churn_events,
      shards, threads);

  // Placement oracle for targeted replica-set wipes (never run).
  sim::EventLoop oracle_loop;
  core::Metrics oracle_metrics;
  chaos::Schedule proto_schedule;
  proto_schedule.regions = gen.regions;
  proto_schedule.cpfs_per_region = gen.cpfs_per_region;
  core::System oracle(oracle_loop, core::neutrino_policy(),
                      chaos::make_topology(proto_schedule),
                      chaos::chaos_proto(), costs, oracle_metrics);

  std::vector<RuntimeAgg> runtimes;
  {
    RuntimeAgg one;
    one.name = "sharded-1";
    runtimes.push_back(std::move(one));
    RuntimeAgg multi;
    multi.name = "sharded-" + std::to_string(shards);
    multi.rc.shards = shards;
    multi.rc.threads = threads;
    runtimes.push_back(std::move(multi));
  }

  struct Failure {
    std::uint64_t seed;
    std::string runtime;
    std::uint64_t violations;
    std::string reproducer;
    std::string flight;
    std::string first;
  };
  std::vector<Failure> failures;
  std::uint64_t mismatches = 0;
  constexpr std::size_t kMaxShrinks = 3;

  for (std::uint64_t seed = 1; seed <= args.seeds; ++seed) {
    chaos::Schedule s = chaos::generate(gen, seed, &oracle);
    if (scen != nullptr) {
      screq.seed = seed;
      overlay_scenario(s, opts.scenario, screq);
    }
    std::vector<chaos::RunOutcome> outs;
    outs.reserve(runtimes.size());
    for (RuntimeAgg& rt : runtimes) {
      outs.push_back(chaos::run_schedule(s, rt.rc, costs));
      rt.add(outs.back());
    }
    for (std::size_t i = 0; i < runtimes.size(); ++i) {
      if (outs[i].violation_count == 0) continue;
      Failure f;
      f.seed = seed;
      f.runtime = runtimes[i].name;
      f.violations = outs[i].violation_count;
      f.first = outs[i].violations.empty() ? "" : outs[i].violations.front();
      if (failures.size() < kMaxShrinks) {
        const chaos::RunConfig rc = runtimes[i].rc;
        const auto fails = [&rc, &costs](const chaos::Schedule& trial) {
          return chaos::run_schedule(trial, rc, costs).violation_count > 0;
        };
        const chaos::Schedule min = chaos::shrink_schedule(s, fails, 400);
        f.reproducer = dump_artifact({min, rc.faults}, args.repro_dir,
                                     runtimes[i].name.c_str());
        f.flight = write_flight_dump(min, rc, costs, f.reproducer);
      }
      std::fprintf(stderr,
                   "chaos: seed %llu violated %llu invariant(s) on %s%s%s\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(f.violations),
                   f.runtime.c_str(),
                   f.reproducer.empty() ? "" : "; reproducer: ",
                   f.reproducer.c_str());
      if (!f.first.empty()) {
        std::fprintf(stderr, "chaos:   first: %s\n", f.first.c_str());
      }
      failures.push_back(std::move(f));
    }
    // Differential check: static windows make the outcome independent of
    // the partition, so any drift between one shard and N is a
    // runtime-layer bug.
    if (!same_outcome(outs[0], outs[1])) {
      ++mismatches;
      std::fprintf(stderr,
                   "chaos: seed %llu: sharded-1 and %s outcomes differ\n",
                   static_cast<unsigned long long>(seed),
                   runtimes[1].name.c_str());
    }
  }

  for (const RuntimeAgg& rt : runtimes) {
    std::string rec;
    for (const auto& [k, v] : rt.recoveries) {
      rec += k + "=" + std::to_string(v) + " ";
    }
    std::printf(
        "chaos\t%s\tseeds=%llu\tviolations=%llu\tstarted=%llu\t"
        "completed=%llu\tlost=%llu\tunquiesced=%llu\tsheds=%llu\t"
        "drops=%llu\tretx=%llu\texhausted=%llu\trecoveries: %s\n",
        rt.name.c_str(), static_cast<unsigned long long>(args.seeds),
        static_cast<unsigned long long>(rt.violations),
        static_cast<unsigned long long>(rt.started),
        static_cast<unsigned long long>(rt.completed),
        static_cast<unsigned long long>(rt.lost),
        static_cast<unsigned long long>(rt.unquiesced),
        static_cast<unsigned long long>(rt.attach_sheds),
        static_cast<unsigned long long>(rt.overload_drops),
        static_cast<unsigned long long>(rt.nas_retransmissions),
        static_cast<unsigned long long>(rt.retx_exhausted), rec.c_str());
  }

  obs::Json doc;
  doc["schema"] = "neutrino.chaos-campaign";
  doc["version"] = 1;
  doc["figure"] = "chaos";
  doc["title"] = "Randomized failure campaign with online invariant checker";
  doc["config"]["seeds"] = args.seeds;
  doc["config"]["regions"] = gen.regions;
  doc["config"]["cpfs_per_region"] = gen.cpfs_per_region;
  doc["config"]["ues"] = gen.ues;
  doc["config"]["actions"] = gen.actions;
  doc["config"]["failure_bursts"] = gen.failure_bursts;
  doc["config"]["overload_bursts"] = gen.overload_bursts;
  doc["config"]["churn_events"] = gen.churn_events;
  doc["config"]["window_ns"] = static_cast<std::int64_t>(gen.window.ns());
  doc["config"]["shards"] = shards;
  doc["config"]["threads"] = threads;
  if (scen != nullptr) {
    // The overlay re-seeds per campaign seed; echo the shared parameters
    // with seed 0 as the placeholder.
    traffic::ScenarioRequest echo = screq;
    echo.seed = 0;
    bench::echo_scenario_config(doc["config"], *scen, echo);
  }
  doc["seeds_run"] = args.seeds;
  doc["mismatches"] = mismatches;
  obs::Json& rows = doc["per_runtime"];
  rows.make_array();
  for (const RuntimeAgg& rt : runtimes) {
    obs::Json& row = rows.push_back(obs::Json{});
    row["system"] = rt.name;
    row["violations"] = rt.violations;
    row["started"] = rt.started;
    row["completed"] = rt.completed;
    row["lost"] = rt.lost;
    row["unquiesced"] = rt.unquiesced;
    row["attach_sheds"] = rt.attach_sheds;
    row["overload_drops"] = rt.overload_drops;
    row["nas_retransmissions"] = rt.nas_retransmissions;
    row["retx_exhausted"] = rt.retx_exhausted;
    obs::Json& rec = row["recoveries"];
    rec.make_object();
    for (const auto& [k, v] : rt.recoveries) rec[k] = v;
  }
  obs::Json& fail_rows = doc["failing_seeds"];
  fail_rows.make_array();
  for (const Failure& f : failures) {
    obs::Json& row = fail_rows.push_back(obs::Json{});
    row["seed"] = f.seed;
    row["runtime"] = f.runtime;
    row["violations"] = f.violations;
    if (!f.reproducer.empty()) row["reproducer"] = f.reproducer;
    if (!f.flight.empty()) row["flight"] = f.flight;
    if (!f.first.empty()) row["first_violation"] = f.first;
  }
  const std::string out = doc.dump(2);
  if (opts.report_path.empty()) {
    std::printf("%s", out.c_str());
  } else if (FILE* fp = std::fopen(opts.report_path.c_str(), "w")) {
    std::fwrite(out.data(), 1, out.size(), fp);
    std::fclose(fp);
    std::printf("# report: %s\n", opts.report_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write report to %s\n",
                 opts.report_path.c_str());
  }

  if (!failures.empty() || mismatches != 0) {
    std::fprintf(
        stderr, "chaos: FAIL: %zu failing seed(s), %llu mismatch(es)\n",
        failures.size(), static_cast<unsigned long long>(mismatches));
    return 1;
  }
  std::printf("# chaos: all %llu seeds clean on every runtime\n",
              static_cast<unsigned long long>(args.seeds));
  return 0;
}
