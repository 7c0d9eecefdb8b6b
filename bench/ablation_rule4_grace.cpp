// Ablation: the §4.2.4(4) notify grace.
//
// Firing the "replica outdated" notify the instant a second procedure
// starts (the paper's rule as literally written) produces millions of
// notifies when checkpoint ACKs lag under load — the metastable feedback
// DESIGN.md §7 documents. The grace bounds that volume: once it exceeds
// the ACK lag, rule 4 goes quiet. Procedure latency is insensitive either
// way *because* replication traffic runs on the dedicated sync core, and
// correctness is carried by the UE-context version check — both worth
// seeing explicitly.
#include "bench_util.hpp"

using namespace neutrino;

int main(int argc, char** argv) {
  bench::Report report(argc, argv, "ablation_rule4",
                       "rule-4 notify grace vs notify storms",
                       "n/a (design-choice ablation)");
  const std::vector<std::int64_t> graces_ms =
      report.smoke() ? std::vector<std::int64_t>{0, 1000}
                     : std::vector<std::int64_t>{0, 10, 1000, 30000};
  const SimTime duration =
      SimTime::milliseconds(report.smoke() ? 200 : 1500);
  const double rate = report.smoke() ? 200e3 : 550e3;
  report.config()["rate_pps"] = rate;
  report.config()["duration_ms"] = duration.ms();
  for (const std::int64_t grace_ms : graces_ms) {
    bench::ExperimentConfig cfg;
    cfg.policy = core::neutrino_policy();
    cfg.topo.l1_per_l2 = 4;
    cfg.topo.latency = bench::testbed_latencies();
    cfg.proto.rule4_grace = SimTime::milliseconds(grace_ms);
    const std::uint64_t users = 120'000;
    cfg.preattached_ues = users;
    // Each UE fires several service requests, so rule 4 is exercised by
    // every procedure whose predecessor's ACKs still lag.
    const auto t = traffic::uniform(rate, duration, {.service_request = 1.0},
                                    users, cfg.topo.total_regions(),
                                    /*seed=*/42);
    const auto result = bench::run_experiment(cfg, t);
    const auto& pct = result.metrics.pct[static_cast<std::size_t>(
        core::ProcedureType::kServiceRequest)];
    std::printf(
        "ablation_rule4\tgrace_ms=%lld\tsr_p50_ms=%.3f\tsr_p99_ms=%.3f\t"
        "outdated_notifies=%llu\tstate_fetches=%llu\treattaches=%llu\t"
        "ryw_violations=%llu\n",
        static_cast<long long>(grace_ms), pct.median(), pct.p99(),
        static_cast<unsigned long long>(result.metrics.outdated_notifies),
        static_cast<unsigned long long>(result.metrics.state_fetches),
        static_cast<unsigned long long>(result.metrics.reattaches),
        static_cast<unsigned long long>(result.metrics.ryw_violations));
    obs::Json& row = report.new_row("Neutrino");
    row["x"] = grace_ms;
    row["sr_pct_ms"] = obs::summary_json(pct);
    bench::Report::attach_result(row, result);
  }
  return 0;
}
