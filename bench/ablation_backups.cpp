// Ablation: how the number of backup replicas (N, §4.2.2) trades
// failure-free overhead against failure-recovery coverage.
//
// Not a paper figure — DESIGN.md lists replica count as the protocol's
// main provisioning knob; this quantifies it: attach PCT and checkpoint
// traffic without failures, plus the Re-Attach rate when a quarter of the
// CPFs crash mid-run.
#include "bench_util.hpp"

using namespace neutrino;

int main(int argc, char** argv) {
  bench::Report report(argc, argv, "ablation_backups",
                       "replica count N: overhead vs coverage",
                       "n/a (design-choice ablation)");
  const std::vector<int> backup_counts =
      report.smoke() ? std::vector<int>{0, 2} : std::vector<int>{0, 1, 2, 3};
  const SimTime duration =
      SimTime::milliseconds(report.smoke() ? 200 : 1000);
  const double rate = 60e3;
  report.config()["rate_pps"] = rate;
  report.config()["duration_ms"] = duration.ms();
  for (const int backups : backup_counts) {
    auto policy = core::neutrino_policy();
    policy.num_backups = backups;
    if (backups == 0) {
      policy.sync_mode = core::SyncMode::kNone;
      policy.recovery = core::RecoveryMode::kReattach;
    }

    // Failure-free: attach PCT + sync traffic at a moderate load.
    bench::ExperimentConfig cfg;
    cfg.policy = policy;
    cfg.topo.l1_per_l2 = 4;
    cfg.topo.latency = bench::testbed_latencies();
    const auto t = traffic::uniform(rate, duration, {}, 1'000'000,
                                    cfg.topo.total_regions(), /*seed=*/42);
    const auto clean = bench::run_experiment(cfg, t);
    const auto& pct = clean.metrics.pct[static_cast<std::size_t>(
        core::ProcedureType::kAttach)];

    // Under failures: crash one CPF per region mid-run.
    const SimTime crash_at = SimTime::milliseconds(report.smoke() ? 100 : 500);
    const auto failed = bench::run_experiment(
        cfg, t, [&](core::ShardedSystem& sys) {
          for (int region = 0; region < cfg.topo.total_regions(); ++region) {
            sys.schedule_crash(
                crash_at,
                cfg.topo.cpf_at(static_cast<std::uint32_t>(region), 0));
          }
        });

    std::printf(
        "ablation_backups\tN=%d\tattach_p50_ms=%.3f\tcheckpoints=%llu\t"
        "acks=%llu\tfailure_reattaches=%llu\tfailure_replayed=%llu\t"
        "ryw_violations=%llu\n",
        backups, pct.median(),
        static_cast<unsigned long long>(clean.metrics.checkpoints_sent),
        static_cast<unsigned long long>(clean.metrics.checkpoint_acks),
        static_cast<unsigned long long>(failed.metrics.reattaches),
        static_cast<unsigned long long>(failed.metrics.replays),
        static_cast<unsigned long long>(failed.metrics.ryw_violations));
    obs::Json& row = report.new_row("Neutrino");
    row["x"] = backups;
    row["attach_pct_ms"] = obs::summary_json(pct);
    row["clean"].make_object();
    bench::Report::attach_result(row["clean"], clean);
    row["under_failure"].make_object();
    bench::Report::attach_result(row["under_failure"], failed);
  }
  return 0;
}
