// Fig. 17: maximum CTA log size vs number of active users.
//
// Paper (§6.7.3): with per-procedure synchronization the log grows with
// active users but stays under 400 MB even at 200K users; handover
// procedures log more than attaches (more/larger messages in flight).
#include "bench_util.hpp"
#include "obs/sampler.hpp"

using namespace neutrino;

namespace {

struct LogSizeRun {
  std::size_t peak_bytes = 0;
  bench::ExperimentResult result;
};

LogSizeRun peak_log_bytes(const core::CorePolicy& policy,
                          core::ProcedureType type, std::uint64_t users,
                          SimTime telemetry_window) {
  bench::ExperimentConfig cfg;
  cfg.policy = policy;
  cfg.topo.l1_per_l2 = type == core::ProcedureType::kHandover ? 4 : 1;
  cfg.preattached_ues = type == core::ProcedureType::kHandover ? users : 0;
  cfg.telemetry_window = telemetry_window;

  // All users act within one second (the paper's highest-pressure case).
  const auto t = traffic::wave(users, type, SimTime{}, SimTime::seconds(1),
                               /*seed=*/42, cfg.topo.total_regions());

  std::size_t peak = 0;
  auto result = bench::run_experiment(
      cfg, t,
      [&](core::ShardedSystem& sys) {
        // Sample the log footprint every 5 ms into its peak; --telemetry
        // adds the windowed queue and busy series.
        core::System& system = sys.system(0);
        obs::PeriodicSampler::schedule(
            system.loop(), SimTime::milliseconds(5), SimTime::seconds(20),
            [&system] { system.sample_log_sizes(); });
      },
      [&](core::ShardedSystem& sys) {
        core::System& system = sys.system(0);
        system.sample_log_sizes();
        peak = system.metrics().cta_log_peak_bytes;
      });
  return {peak, std::move(result)};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report(argc, argv, "fig17", "maximum CTA log size",
                       "<400 MB at 200K active users; grows with users");
  const std::vector<std::uint64_t> user_counts =
      report.smoke()
          ? std::vector<std::uint64_t>{10'000}
          : std::vector<std::uint64_t>{10'000, 50'000, 100'000, 200'000};
  report.config()["user_counts"].make_array();
  for (const auto u : user_counts) report.config()["user_counts"].push_back(u);
  report.config()["sample_interval_ms"] = 5;
  for (const auto type :
       {core::ProcedureType::kAttach, core::ProcedureType::kHandover}) {
    for (const std::uint64_t users : user_counts) {
      const auto run = peak_log_bytes(core::neutrino_policy(), type, users,
                                      report.options().telemetry_window());
      const double peak_mb = static_cast<double>(run.peak_bytes) / 1e6;
      std::printf("fig17\t%s\t%llu\tpeak_log_mb=%.2f\n",
                  std::string(to_string(type)).c_str(),
                  static_cast<unsigned long long>(users), peak_mb);
      obs::Json& row = report.new_row(to_string(type));
      row["x"] = users;
      row["peak_log_mb"] = peak_mb;
      bench::Report::attach_result(row, run.result);
    }
  }
  return 0;
}
