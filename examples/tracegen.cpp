// tracegen: synthesize, inspect, and replay control-traffic trace files.
//
//   tracegen uniform <rate_pps> <seconds> <out.csv>   # Poisson mix
//   tracegen bursty <users> <window_ms> <out.csv>     # synchronized IoT
//   tracegen describe <trace.csv>                     # summary statistics
//   tracegen replay <trace.csv> [epc|neutrino]        # run it, print PCTs
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/cost_model.hpp"
#include "core/system.hpp"
#include "trace/trace_io.hpp"
#include "traffic/engine.hpp"

using namespace neutrino;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  tracegen uniform <rate_pps> <seconds> <out.csv>\n"
               "  tracegen bursty <users> <window_ms> <out.csv>\n"
               "  tracegen describe <trace.csv>\n"
               "  tracegen replay <trace.csv> [epc|neutrino]\n");
  return 2;
}

int describe(const char* path) {
  auto records = trace::load_trace(path);
  if (!records) {
    std::fprintf(stderr, "error: %s\n", records.status().message().c_str());
    return 1;
  }
  const auto s = trace::summarize(*records);
  std::printf("records:      %zu\n", s.records);
  std::printf("distinct UEs: %zu\n", s.distinct_ues);
  std::printf("span:         %.3f s\n", s.span.sec());
  std::printf("rate:         %.0f procedures/s\n", s.rate_pps);
  for (std::size_t i = 0; i < s.by_type.size(); ++i) {
    if (s.by_type[i] == 0) continue;
    std::printf("  %-16s %zu\n",
                std::string(core::to_string(
                                static_cast<core::ProcedureType>(i)))
                    .c_str(),
                s.by_type[i]);
  }
  return 0;
}

int replay(const char* path, const char* which) {
  auto records = trace::load_trace(path);
  if (!records) {
    std::fprintf(stderr, "error: %s\n", records.status().message().c_str());
    return 1;
  }
  const core::CorePolicy policy = (which != nullptr && which[0] == 'e')
                                      ? core::existing_epc_policy()
                                      : core::neutrino_policy();
  sim::EventLoop loop;
  core::Metrics metrics;
  core::MeasuredCostModel costs;
  core::TopologyConfig topo;
  topo.l1_per_l2 = 4;
  core::System system(loop, policy, topo, {}, costs, metrics);
  // Pre-attach every UE so non-attach procedures can run.
  for (const auto& rec : *records) {
    system.frontend().preattach(
        rec.ue, static_cast<std::uint32_t>(
                    rec.ue.value() % static_cast<std::uint64_t>(
                                         topo.total_regions())));
  }
  std::vector<core::System::Arrival> arrivals;
  for (const auto& rec : *records) {
    arrivals.push_back(core::System::Arrival::of(rec));
  }
  system.replay(std::move(arrivals));
  loop.run_until(records->back().at + SimTime::seconds(30));

  std::printf("%s: %llu/%llu procedures completed, %llu RYW violations\n",
              std::string(policy.name).c_str(),
              static_cast<unsigned long long>(metrics.procedures_completed),
              static_cast<unsigned long long>(metrics.procedures_started),
              static_cast<unsigned long long>(metrics.ryw_violations));
  for (std::size_t i = 0; i < core::Metrics::kProcTypes; ++i) {
    const auto& pct = metrics.pct[i];
    if (pct.empty()) continue;
    std::printf("  %-16s n=%zu p50=%.3fms p99=%.3fms\n",
                std::string(core::to_string(
                                static_cast<core::ProcedureType>(i)))
                    .c_str(),
                pct.count(), pct.median(), pct.p99());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  if (cmd == "describe") return describe(argv[2]);
  if (cmd == "replay") return replay(argv[2], argc > 3 ? argv[3] : nullptr);
  if (argc < 5 && cmd != "describe") return usage();

  std::vector<traffic::TraceRecord> records;
  if (cmd == "uniform") {
    records = traffic::uniform(
        std::atof(argv[2]), SimTime::seconds(std::atoll(argv[3])),
        {.service_request = 0.7, .handover = 0.1, .intra_handover = 0.1},
        10'000'000, 4, /*seed=*/1);
  } else if (cmd == "bursty") {
    records = traffic::wave(std::strtoull(argv[2], nullptr, 10),
                            core::ProcedureType::kAttach, SimTime{},
                            SimTime::milliseconds(std::atoll(argv[3])),
                            /*seed=*/1);
  } else {
    return usage();
  }
  if (auto st = trace::save_trace(records, argv[4]); !st.is_ok()) {
    std::fprintf(stderr, "error: %s\n", st.message().c_str());
    return 1;
  }
  std::printf("wrote %zu records to %s\n", records.size(), argv[4]);
  return 0;
}
