// Fig. 7: service-request PCT vs procedures-per-second, uniform traffic,
// four systems.
//
// Paper: up to 120 KPPS Neutrino is 2.3x / 1.3x / 3.4x better than
// existing EPC / DPCM / SkyCore; beyond 140 KPPS EPC and SkyCore cannot
// hold the arrival rate; at 200 KPPS+ everyone saturates but Neutrino
// stays best.
#include "bench_util.hpp"

using namespace neutrino;

int main(int argc, char** argv) {
  bench::Report report(
      argc, argv, "fig07", "service request PCT, uniform traffic",
      "Neutrino 2.3x/1.3x/3.4x vs EPC/DPCM/SkyCore; EPC+SkyCore die >140K");
  const std::vector<double> rates =
      report.smoke() ? std::vector<double>{40e3}
                     : std::vector<double>{100e3, 120e3, 140e3, 160e3,
                                           180e3, 200e3, 220e3};
  const SimTime duration =
      SimTime::milliseconds(report.smoke() ? 100 : 1000);
  report.config()["rates_pps"].make_array();
  for (const double r : rates) report.config()["rates_pps"].push_back(r);
  report.config()["duration_ms"] = duration.ms();
  const core::CorePolicy policies[] = {
      core::existing_epc_policy(), core::dpcm_policy(),
      core::skycore_policy(), core::neutrino_policy()};
  for (const auto& policy : policies) {
    for (const double rate : rates) {
      bench::ExperimentConfig cfg;
      cfg.policy = policy;
      // Where does service-request time go? (--no-decompose to disable)
      cfg.trace_decomposition = report.decompose();
      const auto population = static_cast<std::uint64_t>(rate * 1.2);
      cfg.preattached_ues = population;
      const auto t = traffic::uniform(rate, duration,
                                      {.service_request = 1.0}, population,
                                      cfg.topo.total_regions(), /*seed=*/42);
      const auto result = bench::run_experiment(cfg, t);
      report.add_pct_row(policy.name, rate,
                         result.metrics.pct[static_cast<std::size_t>(
                             core::ProcedureType::kServiceRequest)],
                         &result);
    }
  }
  return 0;
}
