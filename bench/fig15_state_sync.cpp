// Fig. 15: effect of the state-synchronization scheme on attach PCT.
//
// Paper (§6.7.1): per-message replication has the highest median PCT
// (frequent state locking for check-pointing); per-procedure replication
// costs only slightly more than no replication — the trade-off Neutrino
// picks.
#include "bench_util.hpp"

using namespace neutrino;

int main(int argc, char** argv) {
  bench::Report report(
      argc, argv, "fig15", "attach PCT by state-synchronization scheme",
      "PerMsg worst; PerProc barely above NoRep");
  auto no_rep = core::neutrino_policy();
  no_rep.name = "NoRep";
  no_rep.sync_mode = core::SyncMode::kNone;
  no_rep.cta_message_logging = false;
  no_rep.num_backups = 0;
  auto per_msg = core::neutrino_policy();
  per_msg.name = "PerMsgRep";
  per_msg.sync_mode = core::SyncMode::kPerMessage;
  auto per_proc = core::neutrino_policy();
  per_proc.name = "PerProcRep";

  const std::vector<double> rates =
      report.smoke() ? std::vector<double>{40e3}
                     : std::vector<double>{20e3, 40e3, 60e3, 80e3, 100e3};
  const SimTime duration =
      SimTime::milliseconds(report.smoke() ? 100 : 1000);
  report.config()["rates_pps"].make_array();
  for (const double r : rates) report.config()["rates_pps"].push_back(r);
  report.config()["duration_ms"] = duration.ms();
  for (const auto& policy : {no_rep, per_msg, per_proc}) {
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
