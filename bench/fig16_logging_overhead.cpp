// Fig. 16: impact of CTA message logging on attach PCT.
//
// Paper (§6.7.2): in-memory logging is fast — its impact on PCT is
// negligible.
#include "bench_util.hpp"

using namespace neutrino;

int main(int argc, char** argv) {
  bench::Report report(argc, argv, "fig16",
                       "attach PCT with and without CTA logging",
                       "logging has negligible PCT impact");
  auto logging_on = core::neutrino_policy();
  logging_on.name = "Logging";
  auto logging_off = core::neutrino_policy();
  logging_off.name = "NoLogging";
  logging_off.cta_message_logging = false;

  const std::vector<double> rates =
      report.smoke()
          ? std::vector<double>{40e3}
          : std::vector<double>{20e3, 40e3, 60e3, 80e3, 100e3, 120e3, 140e3};
  const SimTime duration =
      SimTime::milliseconds(report.smoke() ? 100 : 1000);
  report.config()["rates_pps"].make_array();
  for (const double r : rates) report.config()["rates_pps"].push_back(r);
  report.config()["duration_ms"] = duration.ms();
  for (const auto& policy : {logging_on, logging_off}) {
    for (const double rate : rates) {
      bench::ExperimentConfig cfg;
      cfg.policy = policy;
      cfg.trace_decomposition = report.decompose();
      const auto t = traffic::uniform(
          rate, duration, {}, static_cast<std::uint64_t>(rate * 2),
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
