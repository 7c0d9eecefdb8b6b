// Fig. 9: attach PCT with synchronized (bursty IoT) control traffic.
//
// Paper: queues build immediately for both systems; Neutrino stays up to
// 2x better in PCT across 10K..2M simultaneously-arriving users.
#include "bench_util.hpp"

using namespace neutrino;

int main(int argc, char** argv) {
  bench::Report report(argc, argv, "fig09", "attach PCT, bursty IoT traffic",
                       "Neutrino up to 2x better, 10K..2M active users");
  const std::vector<std::uint64_t> user_counts =
      report.smoke()
          ? std::vector<std::uint64_t>{10'000}
          : std::vector<std::uint64_t>{10'000,  50'000,    100'000,
                                       500'000, 1'000'000, 2'000'000};
  report.config()["user_counts"].make_array();
  for (const auto u : user_counts) report.config()["user_counts"].push_back(u);
  for (const auto& policy :
       {core::existing_epc_policy(), core::neutrino_policy()}) {
    for (const std::uint64_t users : user_counts) {
      bench::ExperimentConfig cfg;
      cfg.policy = policy;
      cfg.drain = SimTime::seconds(600);  // let the burst fully drain
      cfg.trace_decomposition = report.decompose();
      const auto t =
          traffic::wave(users, core::ProcedureType::kAttach, SimTime{},
                        SimTime::milliseconds(100), /*seed=*/42);
      const auto result = bench::run_experiment(cfg, t);
      report.add_pct_row(policy.name, static_cast<double>(users),
                         result.metrics.pct[static_cast<std::size_t>(
                             core::ProcedureType::kAttach)],
                         &result);
    }
  }
  return 0;
}
