// fig_saturation: offered-load sweep through the saturation knee
// (DESIGN.md §13).
//
// The knee is calibrated from first principles: a low-rate probe measures
// the busy time each completed procedure places on the CTA consumer pool
// and on the CPF request pools; the sustainable system rate is the
// smaller of regions/demand_cta and total_cpfs/demand_cpf. The sweep then
// offers {0.5, 1, 1.5, 2}× that rate with overload control armed (bounded
// CTA/CPF queues, attach admission at 50%, NAS retransmission), plus one
// unbounded-baseline run at 2× for contrast. Memory is reported as a
// per-run watermark *delta* (obs::RssMeter), so the rows are
// order-independent: ru_maxrss is process-lifetime monotone, and a raw
// reading would attribute an earlier row's backlog to whoever runs after.
//
// Acceptance surface (validate_report.py, figure "fig_saturation"): at 2×
// the knee the controlled run must show zero RYW violations, a peak queue
// depth bounded by the configured capacity, completion ≥ 99% after the
// drain, and a non-zero attach shed rate — while the baseline's peak
// backlog exceeds the configured bound (unbounded growth).
#include <cinttypes>
#include <cstdio>
#include <optional>

#include "bench_util.hpp"
#include "knee_probe.hpp"
#include "obs/throughput.hpp"

using namespace neutrino;

namespace {

std::vector<traffic::TraceRecord> make_offered(double rate_pps,
                                               SimTime window,
                                               std::uint64_t population,
                                               int regions) {
  // Attach gets the remaining 0.4.
  return traffic::uniform(rate_pps, window,
                          {.service_request = 0.5, .intra_handover = 0.1},
                          population, regions, /*seed=*/23);
}

std::uint64_t count_attaches(const std::vector<traffic::TraceRecord>& t) {
  std::uint64_t n = 0;
  for (const auto& rec : t) {
    if (rec.type == core::ProcedureType::kAttach) ++n;
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report(argc, argv, "fig_saturation",
                       "offered load through the saturation knee",
                       "bounded queues + NAS retx: zero RYW violations and "
                       ">=99% completion at 2x the knee; unbounded baseline "
                       "backlog grows without bound");
  const core::TopologyConfig topo;  // library default slice
  const auto regions = static_cast<std::uint32_t>(topo.total_regions());
  const std::uint64_t population =
      report.options().ues != 0 ? report.options().ues
                                : (report.smoke() ? 2'000 : 10'000);
  const SimTime window =
      report.smoke() ? SimTime::milliseconds(200) : SimTime::seconds(1);

  // --scenario=NAME sweeps a traffic-engine scenario through the knee
  // instead of the constant-rate uniform mix (the knee is recalibrated
  // from the scenario's own procedure mix). Unset keeps the built-in
  // workload byte-for-byte; unknown names exit 2.
  const traffic::ScenarioInfo* scen =
      bench::require_scenario(report.options().scenario);
  traffic::ScenarioRequest screq;
  screq.duration = window;
  screq.population = population;
  screq.regions = static_cast<int>(regions);
  screq.seed = 23;
  std::optional<traffic::GeneratedTraffic> scen_traffic;
  const auto offered = [&](double rate_pps) {
    if (scen == nullptr) {
      scen_traffic.reset();
      return make_offered(rate_pps, window, population,
                          static_cast<int>(regions));
    }
    screq.target_pps = rate_pps;
    scen_traffic =
        traffic::generate_scenario(report.options().scenario, screq);
    return scen_traffic->records;
  };
  if (scen != nullptr) {
    screq.target_pps = 0;  // echoed per-row; the sweep sets the rate
    bench::echo_scenario_config(report.config(), *scen, screq);
  }

  // --- Knee calibration --------------------------------------------------
  // Probe far below saturation (knee_probe.hpp).
  const std::optional<bench::Knee> knee = bench::probe_knee(
      topo, offered(/*rate_pps=*/500),
      (scen == nullptr || scen->preattach) ? population : 0,
      "fig_saturation:");
  if (!knee) return 1;
  const double knee_pps = knee->pps;
  report.config()["probe_completed"] = knee->probe_completed;
  report.config()["cta_busy_us_per_proc"] = knee->cta_sec_per_proc * 1e6;
  report.config()["cpf_busy_us_per_proc"] = knee->cpf_sec_per_proc * 1e6;
  report.config()["knee_pps"] = knee_pps;
  std::printf("# knee: %.0f pps (cta %.2fus/proc, cpf %.2fus/proc)\n",
              knee_pps, knee->cta_sec_per_proc * 1e6,
              knee->cpf_sec_per_proc * 1e6);

  obs::RssMeter rss_meter;
  report.config()["queue_capacity"] = bench::kOverloadQueueCapacity;
  report.config()["population"] = population;
  report.config()["window_ms"] = window.sec() * 1e3;
  report.config()["rss_baseline_bytes"] = rss_meter.baseline_bytes();

  const auto run_point = [&](const char* system_name,
                             const core::ProtocolConfig& proto, double mult,
                             bool trace_this_run = false) {
    bench::ExperimentConfig cfg;
    cfg.policy = core::neutrino_policy();
    cfg.topo = topo;
    cfg.proto = proto;
    cfg.preattached_ues =
        (scen == nullptr || scen->preattach) ? population : 0;
    cfg.streaming_pct = true;  // storm-scale run; percentiles not needed
    cfg.telemetry_window = report.options().telemetry_window();
    cfg.record_trace_events = trace_this_run;
    const double rate = knee_pps * mult;
    const auto t = offered(rate);
    bench::PoolLoad load;
    rss_meter.begin_run();
    const auto result = bench::run_experiment(
        cfg, t, [](core::ShardedSystem&) {}, [&](core::ShardedSystem& sys) {
          load = bench::scan_pools(sys.system(0), topo);
        });
    const std::size_t rss_delta = rss_meter.run_delta_bytes();
    if (trace_this_run) {
      bench::write_trace_file(report.options().trace_out,
                              obs::perfetto_trace(result.tracer.get()));
    }
    const auto& m = result.metrics;
    const std::uint64_t offered_attaches = count_attaches(t);
    const double completion =
        m.procedures_started == 0u
            ? 1.0
            : static_cast<double>(m.procedures_completed.value()) /
                  static_cast<double>(m.procedures_started.value());
    // Sheds per offered attach; retransmitted attaches can be shed again,
    // so under sustained 2x overload this intentionally exceeds 1.
    const double shed_rate =
        offered_attaches == 0u
            ? 0.0
            : static_cast<double>(m.attach_sheds.value()) /
                  static_cast<double>(offered_attaches);
    const std::size_t rss = obs::peak_rss_bytes();
    std::printf("fig_saturation\t%s\t%.2f\toffered=%.0fpps\tn=%zu\t"
                "completion=%.4f\tsheds=%" PRIu64 "\tdrops=%" PRIu64
                "\tretx=%" PRIu64 "\texhausted=%" PRIu64
                "\tpeak_cta=%zu\tpeak_cpf=%zu\trss_mb=%.1f\t"
                "rss_delta_mb=%.1f\n",
                system_name, mult, rate, t.size(), completion,
                m.attach_sheds.value(), m.overload_drops.value(),
                m.nas_retransmissions.value(), m.retx_exhausted.value(),
                load.peak_cta_depth, load.peak_cpf_depth,
                static_cast<double>(rss) / (1024.0 * 1024.0),
                static_cast<double>(rss_delta) / (1024.0 * 1024.0));
    obs::Json& row = report.new_row(system_name);
    row["x"] = mult;
    row["offered_pps"] = rate;
    row["offered_procedures"] = static_cast<std::uint64_t>(t.size());
    row["offered_attaches"] = offered_attaches;
    row["completion_rate"] = completion;
    row["attach_shed_rate"] = shed_rate;
    row["peak_cta_depth"] = static_cast<std::uint64_t>(load.peak_cta_depth);
    row["peak_cpf_depth"] = static_cast<std::uint64_t>(load.peak_cpf_depth);
    row["peak_rss_bytes"] = rss;
    row["peak_rss_delta_bytes"] = static_cast<std::uint64_t>(rss_delta);
    if (scen != nullptr) {
      row["scenario"] = report.options().scenario;
      bench::attach_arrivals(row, *scen_traffic, window);
    }
    bench::Report::attach_result(row, result);
  };

  const bool want_trace = !report.options().trace_out.empty();
  for (const double mult : {0.5, 1.0, 1.5, 2.0}) {
    // The 2x controlled point is the interesting timeline (sheds + retx
    // under full overload control): that's the one --trace-out exports.
    run_point("overload-control", bench::overload_controlled(), mult,
              want_trace && mult == 2.0);
  }
  // Pre-PR baseline: no bounds, no retx — the backlog at 2x grows with the
  // window and the peak depth lands far beyond the controlled bound.
  // (Order no longer matters for the RSS columns: each row reports its own
  // watermark delta.)
  run_point("baseline-unbounded", core::ProtocolConfig{}, 2.0);
  return 0;
}
