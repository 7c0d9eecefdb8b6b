// Ablation: failure-detection time.
//
// The paper's PCT-under-failure numbers exclude detection time (§6.4).
// This ablation puts it back: CPFs crash *silently* and the CTAs' §4.1
// heartbeat detectors must notice, sweeping the probe interval. Recovery
// PCT ~= 3 x probe interval + the (tiny) replay cost — detection, not
// recovery, dominates end-to-end failover once the protocol is fast.
#include "bench_util.hpp"

using namespace neutrino;

int main(int argc, char** argv) {
  bench::Report report(argc, argv, "ablation_detection",
                       "failure detection time vs recovery PCT",
                       "n/a (quantifies what §6.4 excludes)");
  const std::vector<std::int64_t> probe_intervals_ms =
      report.smoke() ? std::vector<std::int64_t>{5}
                     : std::vector<std::int64_t>{1, 5, 20, 100};
  const SimTime duration =
      SimTime::milliseconds(report.smoke() ? 400 : 1000);
  report.config()["duration_ms"] = duration.ms();
  for (const std::int64_t probe_ms : probe_intervals_ms) {
    bench::ExperimentConfig cfg;
    cfg.policy = core::neutrino_policy();
    cfg.topo.latency = bench::testbed_latencies();
    const double rate = 40e3;
    const auto population = static_cast<std::uint64_t>(rate * 1.2);
    cfg.preattached_ues = population;
    trace::ProcedureMix mix{.service_request = 1.0};
    trace::UniformWorkload workload(rate, duration, mix, /*seed=*/42);
    const auto t = workload.generate(population, cfg.topo.total_regions());
    const int waves = report.smoke() ? 2 : 8;
    const auto result = bench::run_experiment(
        cfg, t, [&](core::ShardedSystem& sys) {
          core::System& system = sys.system(0);
          for (int region = 0; region < cfg.topo.total_regions(); ++region) {
            system.cta(static_cast<std::uint32_t>(region))
                .start_failure_detector(SimTime::milliseconds(probe_ms));
          }
          // Crash waves (silent): a rotating CPF fails every 100 ms and
          // restarts 70 ms later; only the heartbeat monitors notice.
          for (int wave = 0; wave < waves; ++wave) {
            const SimTime at = SimTime::milliseconds(150 + 100 * wave);
            const CpfId victim{static_cast<std::uint32_t>(wave % 5)};
            system.loop().schedule_at(at, [&system, victim] {
              system.crash_cpf_silently(victim);
            });
            sys.schedule_restore(at + SimTime::milliseconds(70), victim);
          }
        });
    const auto& pf = result.metrics.pct_under_failure[static_cast<std::size_t>(
        core::ProcedureType::kServiceRequest)];
    std::printf(
        "ablation_detection\tprobe_ms=%lld\tfailure_sr_p50_ms=%.3f\t"
        "n=%zu\treplays=%llu\treattaches=%llu\n",
        static_cast<long long>(probe_ms), pf.empty() ? -1.0 : pf.median(),
        pf.count(),
        static_cast<unsigned long long>(result.metrics.replays),
        static_cast<unsigned long long>(result.metrics.reattaches));
    obs::Json& row = report.new_row("Neutrino");
    row["x"] = probe_ms;
    row["failure_sr_pct_ms"] = obs::summary_json(pf);
    bench::Report::attach_result(row, result);
  }
  return 0;
}
