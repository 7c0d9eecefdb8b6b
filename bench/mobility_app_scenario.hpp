// Shared driver for the §6.6 mobility-application studies (Figs. 13, 14):
// background signaling load + one observed UE executing handovers; deadline
// misses derive from the observed UE's data-path outage windows.
#pragma once

#include <algorithm>

#include "apps/deadline_app.hpp"
#include "bench_util.hpp"

namespace neutrino::bench {

inline void run_mobility_app_scenario(Report& report, const char* figure,
                                      const char* scenario, SimTime deadline,
                                      std::span<const std::uint64_t> counts,
                                      int handovers) {
  const SimTime window =
      SimTime::milliseconds(report.smoke() ? 1000 : 6000);
  for (const auto& policy :
       {core::existing_epc_policy(), core::neutrino_policy()}) {
    for (const std::uint64_t users : counts) {
      ExperimentConfig cfg;
      cfg.policy = policy;
      cfg.topo.l1_per_l2 = 4;
      cfg.topo.latency = testbed_latencies();
      cfg.preattached_ues = users + 1;
      // Background signaling: one service request per active user across
      // the window (the load mobility competes with). Load runs for the
      // whole drive so every handover competes with it (the paper's 60 s
      // runs keep load and mobility concurrent).
      auto t = traffic::uniform(static_cast<double>(users), window,
                                {.service_request = 1.0}, users,
                                cfg.topo.total_regions(), /*seed=*/42);

      // (at, ue, type) total order: a non-stable sort keyed on `at` alone
      // leaves equal-timestamp records in unspecified order, breaking the
      // bitwise-determinism contract.
      traffic::sort_records(t);

      // The observed vehicle/headset: UE id `users`. The paper's 5-minute
      // 60 mph drive (Fig. 12) is time-compressed into the simulated
      // window; handovers chain back-to-back (a saturated core delays the
      // next crossing's completion, not its occurrence), every fourth one
      // within the serving region.
      const UeId observed{users};
      apps::DeadlineApp app;
      app.deadline = deadline;
      app.radio_gap = SimTime::milliseconds(25);  // LTE retune interruption
      std::uint64_t missed = 0;
      const auto result = run_experiment(
          cfg, t,
          [&](core::ShardedSystem& sys) {
            core::System& system = sys.system(0);
            system.frontend().watch_outages(observed);
            sim::EventLoop& loop = system.loop();
            // Driver: issue the next handover as soon as the previous one
            // finished, up to the scenario's count.
            auto driver = std::make_shared<std::function<void(int)>>();
            *driver = [&system, &loop, observed, handovers, driver,
                       regions = cfg.topo.total_regions()](int issued) {
              if (issued >= handovers) return;
              system.frontend().start_procedure(
                  observed,
                  issued % 4 == 3 ? core::ProcedureType::kIntraHandover
                                  : core::ProcedureType::kHandover,
                  static_cast<std::uint32_t>((issued + 1) %
                                             static_cast<std::uint32_t>(
                                                 regions)));
              // Poll for completion, then schedule the next crossing.
              auto poll = std::make_shared<std::function<void()>>();
              *poll = [&system, &loop, observed, issued, driver, poll] {
                if (system.frontend().outages(observed).size() >
                    static_cast<std::size_t>(issued)) {
                  loop.schedule_after(SimTime::milliseconds(50),
                                      [driver, issued] {
                                        (*driver)(issued + 1);
                                      });
                } else {
                  loop.schedule_after(SimTime::milliseconds(20), *poll);
                }
              };
              loop.schedule_after(SimTime::milliseconds(20), *poll);
            };
            loop.schedule_at(SimTime::milliseconds(200),
                             [driver] { (*driver)(0); });
          },
          [&](core::ShardedSystem& sys) {
            missed = app.missed_deadlines(
                sys.system(0).frontend().outages(observed));
          });
      std::printf("%s\t%s\t%s\t%llu\tmissed=%llu\n", figure, scenario,
                  std::string(policy.name).c_str(),
                  static_cast<unsigned long long>(users),
                  static_cast<unsigned long long>(missed));
      obs::Json& row = report.new_row(policy.name);
      row["scenario"] = scenario;
      row["x"] = users;
      row["handovers"] = handovers;
      row["deadline_ms"] = deadline.ms();
      row["missed_deadlines"] = missed;
      Report::attach_result(row, result);
    }
  }
}

}  // namespace neutrino::bench
