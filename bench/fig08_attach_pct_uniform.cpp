// Fig. 8: attach PCT vs procedures-per-second, uniform traffic.
//
// Paper: Neutrino up to 2.3x better in median PCT below 60 KPPS; existing
// EPC saturates beyond 60 KPPS while Neutrino holds until ~120 KPPS, where
// it is up to 3.4x better.
#include "bench_util.hpp"

using namespace neutrino;

int main(int argc, char** argv) {
  bench::Report report(argc, argv, "fig08", "attach PCT, uniform traffic",
                       "EPC knee ~60KPPS, Neutrino knee ~120KPPS, 2.3-3.4x");
  const std::vector<double> rates =
      report.smoke()
          ? std::vector<double>{40e3}
          : std::vector<double>{40e3, 60e3, 80e3, 100e3, 120e3, 140e3, 160e3};
  const SimTime duration =
      SimTime::milliseconds(report.smoke() ? 100 : 1500);
  report.config()["rates_pps"].make_array();
  for (const double r : rates) report.config()["rates_pps"].push_back(r);
  report.config()["duration_ms"] = duration.ms();
  for (const auto& policy :
       {core::existing_epc_policy(), core::neutrino_policy()}) {
    for (const double rate : rates) {
      bench::ExperimentConfig cfg;
      cfg.policy = policy;
      // The paper's testbed: one region, five CPF instances.
      cfg.topo = core::TopologyConfig{};
      cfg.proto = core::ProtocolConfig{};
      // Attach-time decomposition by hop (--no-decompose to disable).
      cfg.trace_decomposition = report.decompose();
      const auto t = traffic::uniform(rate, duration, {},
                                      /*ue_population=*/10'000'000,
                                      cfg.topo.total_regions(), /*seed=*/42);
      const auto result = bench::run_experiment(cfg, t);
      report.add_pct_row(policy.name, rate,
                         result.metrics.pct[static_cast<std::size_t>(
                             core::ProcedureType::kAttach)],
                         &result);
    }
  }
  return 0;
}
