// Fig. 10: handover PCT *under CPF failure*, uniform traffic.
//
// Paper: up to 5.6x better median PCT below 60 KPPS — instead of
// re-attaching, the CTA replays logged messages onto the replica, saving
// multiple round trips. (PCT excludes failure detection time, as in §6.4.)
#include "bench_util.hpp"

using namespace neutrino;

int main(int argc, char** argv) {
  bench::Report report(argc, argv, "fig10", "handover PCT under CPF failure",
                       "Neutrino up to 5.6x better median PCT (<60 KPPS)");
  const std::vector<double> rates =
      report.smoke()
          ? std::vector<double>{40e3}
          : std::vector<double>{40e3, 60e3, 80e3, 100e3, 120e3, 140e3, 160e3};
  const SimTime duration =
      SimTime::milliseconds(report.smoke() ? 400 : 1500);
  report.config()["rates_pps"].make_array();
  for (const double r : rates) report.config()["rates_pps"].push_back(r);
  report.config()["duration_ms"] = duration.ms();
  for (const auto& policy :
       {core::existing_epc_policy(), core::neutrino_policy()}) {
    for (const double rate : rates) {
      bench::ExperimentConfig cfg;
      cfg.policy = policy;
      cfg.topo.l1_per_l2 = 4;
      cfg.topo.latency = bench::testbed_latencies();  // inter-CPF handovers need regions
      cfg.trace_decomposition = report.decompose();
      const auto population = static_cast<std::uint64_t>(rate * 1.2);
      cfg.preattached_ues = population;
      const auto t = traffic::uniform(rate, duration, {.handover = 1.0},
                                      population, cfg.topo.total_regions(),
                                      /*seed=*/42);
      // Crash waves: every 100 ms a CPF per region fails (and is restarted
      // empty 80 ms later, as a real NF respawn would be) — each wave's
      // in-flight procedures go through the recovery path.
      const int waves = report.smoke() ? 1 : 8;
      const auto result = bench::run_experiment(
          cfg, t, [&](core::ShardedSystem& sys) {
            for (int wave = 0; wave < waves; ++wave) {
              const SimTime at = SimTime::milliseconds(250 + 140 * wave);
              for (int region = 0; region < cfg.topo.total_regions();
                   ++region) {
                const CpfId victim = cfg.topo.cpf_at(
                    static_cast<std::uint32_t>(region),
                    wave % cfg.topo.cpfs_per_region);
                sys.schedule_crash(at, victim);
                sys.schedule_restore(at + SimTime::milliseconds(70), victim);
              }
            }
          });
      report.add_pct_row(policy.name, rate,
                         result.metrics.pct_under_failure[static_cast<
                             std::size_t>(core::ProcedureType::kHandover)],
                         &result, "pct_under_failure_ms");
    }
  }
  return 0;
}
