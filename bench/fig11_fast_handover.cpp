// Fig. 11: FastHandover PCT, uniform traffic.
//
// Paper: Neutrino-Proactive improves median handover PCT by up to 7x over
// existing EPC below 60 KPPS (no pre-handover state migration at all);
// Neutrino-Default (migration, but fast serialization) sits in between.
#include "bench_util.hpp"

using namespace neutrino;

int main(int argc, char** argv) {
  bench::Report report(
      argc, argv, "fig11", "inter-CPF handover PCT: proactive geo-replication",
      "Neutrino-Proactive up to 7x over EPC; Default in between");
  auto neutrino_default = core::neutrino_policy();
  neutrino_default.name = "Neutrino-Default";
  neutrino_default.handover = core::HandoverMode::kMigrate;
  auto neutrino_proactive = core::neutrino_policy();
  neutrino_proactive.name = "Neutrino-Proactive";

  const std::vector<double> rates =
      report.smoke()
          ? std::vector<double>{40e3}
          : std::vector<double>{40e3, 60e3, 80e3, 100e3, 120e3, 140e3, 160e3};
  const SimTime duration =
      SimTime::milliseconds(report.smoke() ? 200 : 1000);
  report.config()["rates_pps"].make_array();
  for (const double r : rates) report.config()["rates_pps"].push_back(r);
  report.config()["duration_ms"] = duration.ms();
  for (const auto& policy : {core::existing_epc_policy(), neutrino_default,
                             neutrino_proactive}) {
    for (const double rate : rates) {
      bench::ExperimentConfig cfg;
      cfg.policy = policy;
      cfg.topo.l1_per_l2 = 4;
      cfg.topo.latency = bench::testbed_latencies();
      cfg.trace_decomposition = report.decompose();
      const auto population = static_cast<std::uint64_t>(rate * 1.2);
      cfg.preattached_ues = population;
      const auto t = traffic::uniform(rate, duration, {.handover = 1.0},
                                      population, cfg.topo.total_regions(),
                                      /*seed=*/42);
      const auto result = bench::run_experiment(cfg, t);
      report.add_pct_row(policy.name, rate,
                         result.metrics.pct[static_cast<std::size_t>(
                             core::ProcedureType::kHandover)],
                         &result);
    }
  }
  return 0;
}
