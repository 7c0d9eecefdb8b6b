// fig_scenarios: the saturation sweep re-run under realistic traffic
// (DESIGN.md §17).
//
// fig_saturation calibrates one knee for the constant-rate uniform mix;
// this bench runs the same calibration + sweep once per *named scenario*
// (src/traffic/scenario.hpp): probe the scenario at a low rate to price
// its procedure mix on the CTA/CPF pools, derive the scenario-specific
// knee, then offer {0.5, 1, 1.5}x that knee with overload control armed.
// Spiky scenarios (stadium-egress, region-blackout-reconnect) push far
// past the knee *instantaneously* even at 1x average — exactly the
// regime bounded queues + NAS retransmission exist for.
//
// Acceptance surface (validate_report.py, figure "fig_scenarios"): every
// row echoes its scenario and carries offered-arrival accounting (total +
// per-class counts + a windowed arrival series); at 1x the calibrated
// knee every scenario completes >= 99% of started procedures with zero
// RYW violations. The bench itself exits non-zero when that gate fails.
//
//   --scenario=NAME   sweep only NAME (default: every named scenario)
//   --ues=N           population override (default 10k; --smoke 2k)
#include <cinttypes>
#include <cstdio>
#include <optional>

#include "bench_util.hpp"
#include "knee_probe.hpp"

using namespace neutrino;

namespace {

/// All procedure types folded into one PCT distribution: the scenarios
/// differ in mix, so a per-type table would not compare across them.
LatencyRecorder merged_pct(core::Metrics& m) {
  LatencyRecorder merged;
  using PT = core::ProcedureType;
  for (const PT type : {PT::kAttach, PT::kServiceRequest, PT::kHandover,
                        PT::kIntraHandover, PT::kReattach, PT::kDetach,
                        PT::kTau}) {
    merged.merge(m.pct_for(type));
  }
  return merged;
}

obs::Json pct_json(const LatencyRecorder& pct) {
  obs::Json j;
  j["n"] = pct.count();
  j["mean"] = pct.mean();
  if (pct.empty()) {
    j["p50"] = 0.0;
    j["p95"] = 0.0;
    j["p99"] = 0.0;
    j["max"] = 0.0;
  } else {
    j["p50"] = pct.percentile(0.50);
    j["p95"] = pct.percentile(0.95);
    j["p99"] = pct.percentile(0.99);
    j["max"] = pct.max();
  }
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report(argc, argv, "fig_scenarios",
                       "per-scenario saturation sweep (traffic engine)",
                       "every named scenario at its calibrated knee: zero "
                       "RYW violations and >=99% completion with overload "
                       "control armed");
  const bench::BenchOptions& opts = report.options();
  const core::TopologyConfig topo;  // library default slice
  const auto regions = static_cast<std::uint32_t>(topo.total_regions());
  const std::uint64_t population =
      opts.ues != 0 ? opts.ues : (report.smoke() ? 2'000 : 10'000);
  const SimTime window =
      report.smoke() ? SimTime::milliseconds(300) : SimTime::seconds(1);

  std::vector<std::string> names;
  if (!opts.scenario.empty()) {
    bench::require_scenario(opts.scenario);  // exits 2 on a typo
    names.push_back(opts.scenario);
  } else {
    for (const traffic::ScenarioInfo& s : traffic::scenarios()) {
      names.emplace_back(s.name);
    }
  }

  report.config()["queue_capacity"] = bench::kOverloadQueueCapacity;
  report.config()["population"] = population;
  report.config()["window_ms"] = window.sec() * 1e3;
  obs::Json& scenario_list = report.config()["scenarios"];
  scenario_list.make_array();
  for (const std::string& n : names) scenario_list.push_back(n);
  obs::Json& knees = report.config()["knees"];
  knees.make_object();

  bool ok = true;
  for (const std::string& name : names) {
    const traffic::ScenarioInfo* info = traffic::find_scenario(name);
    traffic::ScenarioRequest req;
    req.duration = window;
    req.population = population;
    req.regions = static_cast<int>(regions);
    req.seed = 23;

    // --- Per-scenario knee calibration (knee_probe.hpp): probe the
    // *scenario's own mix* far below saturation.
    req.target_pps = 500;
    const std::optional<bench::Knee> knee = bench::probe_knee(
        topo, traffic::generate_scenario(name, req)->records,
        info->preattach ? population : 0, "fig_scenarios: " + name);
    if (!knee) {
      ok = false;
      continue;
    }
    const double knee_pps = knee->pps;
    knees[name] = knee_pps;
    std::printf("# %s knee: %.0f pps (cta %.2fus/proc, cpf %.2fus/proc)\n",
                name.c_str(), knee_pps, knee->cta_sec_per_proc * 1e6,
                knee->cpf_sec_per_proc * 1e6);

    for (const double mult : {0.5, 1.0, 1.5}) {
      req.target_pps = knee_pps * mult;
      const auto traffic_gen = traffic::generate_scenario(name, req);
      bench::ExperimentConfig cfg;
      cfg.policy = core::neutrino_policy();
      cfg.topo = topo;
      cfg.proto = bench::overload_controlled();
      cfg.preattached_ues = info->preattach ? population : 0;
      cfg.telemetry_window = opts.telemetry_window();
      bench::PoolLoad load;
      auto result = bench::run_experiment(
          cfg, traffic_gen->records, [](core::ShardedSystem&) {},
          [&](core::ShardedSystem& sys) {
            load = bench::scan_pools(sys.system(0), topo);
          });
      auto& m = result.metrics;
      const double completion =
          m.procedures_started == 0u
              ? 1.0
              : static_cast<double>(m.procedures_completed.value()) /
                    static_cast<double>(m.procedures_started.value());
      const LatencyRecorder pct = merged_pct(m);
      std::printf(
          "fig_scenarios\t%s\t%.2f\toffered=%.0fpps\tn=%" PRIu64
          "\tcompletion=%.4f\tsheds=%" PRIu64 "\tretx=%" PRIu64
          "\texhausted=%" PRIu64 "\tp50=%.3f\tp95=%.3f\tp99=%.3f\t"
          "peak_cta=%zu\tpeak_cpf=%zu\tryw=%" PRIu64 "\n",
          name.c_str(), mult, req.target_pps, traffic_gen->total(),
          completion, m.attach_sheds.value(),
          m.nas_retransmissions.value(), m.retx_exhausted.value(),
          pct.empty() ? 0.0 : pct.percentile(0.50),
          pct.empty() ? 0.0 : pct.percentile(0.95),
          pct.empty() ? 0.0 : pct.percentile(0.99), load.peak_cta_depth,
          load.peak_cpf_depth, m.ryw_violations.value());
      obs::Json& row = report.new_row(name);
      row["x"] = mult;
      row["scenario"] = name;
      row["offered_pps"] = req.target_pps;
      row["knee_pps"] = knee_pps;
      row["completion_rate"] = completion;
      row["pct_ms"] = pct_json(pct);
      row["peak_cta_depth"] = static_cast<std::uint64_t>(load.peak_cta_depth);
      row["peak_cpf_depth"] = static_cast<std::uint64_t>(load.peak_cpf_depth);
      bench::attach_arrivals(row, *traffic_gen, window);
      bench::Report::attach_result(row, result);

      // The acceptance gate rides the 1x-knee row: realistic mixes must
      // clear the calibrated knee with overload control, zero RYW and
      // >= 99% completion (ISSUE 8 acceptance).
      if (mult == 1.0 &&
          (m.ryw_violations.value() != 0 || completion < 0.99)) {
        std::fprintf(stderr,
                     "fig_scenarios: FAILED %s at knee: completion=%.4f "
                     "ryw=%" PRIu64 "\n",
                     name.c_str(), completion, m.ryw_violations.value());
        ok = false;
      }
    }
  }
  report.finish();
  return ok ? 0 : 1;
}
