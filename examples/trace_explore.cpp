// Trace explorer: run an attach, an inter-CPF handover, and a service
// request that a CPF crash interrupts — with full procedure tracing on —
// then dump the hop-by-hop timelines as JSON (obs/trace.hpp).
//
// The crash-crossing procedure is the interesting one: its timeline shows
// the request reaching the doomed CPF, the crash, the CTA replaying the
// logged messages onto a backup, and the response returning — every hop
// stamped with sim-time, class (propagation / queueing / service /
// serialization) and node, and the decomposition tiling the PCT exactly.
#include <cstdio>

#include "core/cost_model.hpp"
#include "core/system.hpp"
#include "obs/trace.hpp"

using namespace neutrino;

int main() {
  sim::EventLoop loop;
  core::Metrics metrics;
  core::FixedCostModel costs(SimTime::microseconds(10));
  core::TopologyConfig topo;
  topo.l1_per_l2 = 2;  // two regions so the handover crosses CPFs
  core::System system(loop, core::neutrino_policy(), topo, {}, costs,
                      metrics);

  obs::TracerConfig tc;
  tc.record_events = true;  // keep full hop timelines
  tc.keep_all = true;
  obs::ProcTracer tracer(tc);
  system.attach_tracer(tracer);

  // A plain attach and an inter-CPF handover, for comparison timelines.
  const UeId attacher{1};
  system.frontend().start_procedure(attacher, core::ProcedureType::kAttach);
  const UeId walker{2};
  system.frontend().preattach(walker, 0);
  loop.schedule_at(SimTime::milliseconds(1), [&] {
    system.frontend().start_procedure(walker, core::ProcedureType::kHandover,
                                      /*target_region=*/1);
  });

  // The crash crossing: service request in flight when its CPF dies.
  const UeId victim_ue{7};
  system.frontend().preattach(victim_ue, 0);
  loop.schedule_at(SimTime::milliseconds(2), [&] {
    system.frontend().start_procedure(victim_ue,
                                      core::ProcedureType::kServiceRequest);
  });
  const CpfId victim_cpf = system.primary_cpf_for(victim_ue, 0);
  loop.schedule_at(SimTime::milliseconds(2) + SimTime::microseconds(25),
                   [&] { system.crash_cpf(victim_cpf); });

  loop.run_until(SimTime::seconds(10));

  std::printf("# traced %llu procedures (%zu hit a failure path)\n",
              static_cast<unsigned long long>(tracer.spans_completed()),
              tracer.failed().size());
  std::printf("# timeline of the procedure that crossed CPF %u's crash:\n",
              victim_cpf.value());
  for (const obs::Span& s : tracer.all()) {
    if (s.ue == victim_ue) {
      std::printf("%s", s.to_json().dump(2).c_str());
      break;
    }
  }
  std::printf("# full dump (slowest + failed spans):\n");
  std::printf("%s", tracer.dump_json().dump(2).c_str());
  return 0;
}
