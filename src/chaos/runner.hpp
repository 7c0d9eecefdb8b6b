// Chaos schedule runner: executes one Schedule on a ShardedSystem (static
// conservative windows, DESIGN.md §11) with one InvariantChecker per
// shard riding along, and folds the run into a RunOutcome (violations,
// recovery-outcome histogram, lost UEs, quiescence). One shard is the
// single-loop reference: a plain System run, bit for bit.
//
// The same Schedule must produce the same protocol behavior at every
// shard count; the campaign exploits that by running each seed on one
// shard and on several and comparing outcomes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/checker.hpp"
#include "chaos/schedule.hpp"
#include "core/cost_model.hpp"
#include "core/metrics.hpp"
#include "core/policy.hpp"
#include "core/sharded_system.hpp"
#include "core/system.hpp"
#include "core/topology.hpp"
#include "obs/flight_recorder.hpp"

namespace neutrino::chaos {

struct RunConfig {
  /// ShardedSystem partition and worker threads (1×1 is the single-loop
  /// reference).
  std::uint32_t shards = 1;
  std::uint32_t threads = 1;
  core::FaultInjection faults;
  SimTime audit_interval = SimTime::milliseconds(50);
  /// Ride a flight recorder along (one per shard) and put the merged dump
  /// in RunOutcome::flight_json. The campaign arms this so an invariant
  /// violation ships the last-events timeline next to the repro artifact.
  bool record_flight = false;
  std::size_t flight_capacity = 256;
};

struct RunOutcome {
  std::uint64_t violation_count = 0;
  std::vector<std::string> violations;  // capped per checker
  /// All loops fully drained at the horizon: no message was still in
  /// flight or queued. Reported, not a violation by itself.
  bool quiesced = true;
  std::uint64_t lost = 0;  // UEs still mid-procedure at the horizon
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  /// The frontend's own RYW counter — must agree with the checker.
  std::uint64_t ryw_metric = 0;
  // Overload-control accounting (zero unless the schedule has kOverload
  // events, which arm bounded queues + NAS retransmission).
  std::uint64_t attach_sheds = 0;
  std::uint64_t overload_drops = 0;
  std::uint64_t nas_retransmissions = 0;
  std::uint64_t retx_exhausted = 0;
  /// FastHandover path split (§4.3): arrivals served from the local
  /// replica vs arrivals that had to park in pending_handover_ and fetch
  /// state (the slow path the crash-collision regressions aim at).
  std::uint64_t fast_handovers = 0;
  std::uint64_t state_fetches = 0;
  /// Elastic churn accounting (zero unless the schedule has kScaleOut /
  /// kDrain events).
  std::uint64_t scale_outs = 0;
  std::uint64_t drains = 0;
  std::uint64_t handoff_ues = 0;
  /// Fig. 5 recovery-outcome histogram: scenario label → count
  /// ("failover" / "replay" / "reattach" / "hole").
  std::map<std::string, std::uint64_t> recoveries;
  /// Merged flight-recorder dump (obs::merge_flight JSON); empty unless
  /// RunConfig::record_flight. Deterministic for a fixed shard count.
  std::string flight_json;
  /// Events retained across all recorders (ring size bounds this).
  std::uint64_t flight_events = 0;
};

/// Topology slice a Schedule runs on: one level-2 region so every
/// inter-region link is the 400µs intra-l2 class (which also keeps the
/// sharded lookahead large).
inline core::TopologyConfig make_topology(const Schedule& s) {
  core::TopologyConfig topo;
  topo.l2_regions = 1;
  topo.l1_per_l2 = static_cast<int>(s.regions);
  topo.cpfs_per_region = static_cast<int>(s.cpfs_per_region);
  return topo;
}

/// Campaign protocol knobs: paper semantics, shortened timers so a 3s
/// window exercises ACK-timeout pruning, fetch give-ups and idle
/// releases many times over, and the drain tail actually quiesces.
inline core::ProtocolConfig chaos_proto() {
  core::ProtocolConfig proto;
  proto.ack_timeout = SimTime::milliseconds(500);
  proto.log_scan_interval = SimTime::milliseconds(100);
  proto.ho_coverage_grace = SimTime::milliseconds(200);
  proto.fetch_timeout = SimTime::milliseconds(300);
  return proto;
}

/// A schedule containing kOverload events runs with the overload-control
/// machinery armed (DESIGN.md §13): queues small enough that a one-region
/// storm (ues/regions simultaneous procedures) overflows them, plus NAS
/// retransmission to re-drive the shed work. Knob values live here, not in
/// the artifact, so a repro JSON stays a pure schedule.
inline bool schedule_has_overload(const Schedule& s) {
  return std::any_of(s.events.begin(), s.events.end(), [](const Event& e) {
    return e.kind == EventKind::kOverload;
  });
}

inline core::ProtocolConfig overload_proto() {
  core::ProtocolConfig proto = chaos_proto();
  proto.cta_queue_capacity = 4;
  proto.cpf_queue_capacity = 4;
  proto.attach_admission_fraction = 0.5;
  proto.nas_retx_timeout = SimTime::milliseconds(10);
  proto.nas_retx_budget = 4;
  return proto;
}

namespace detail {

inline void apply_ue_event(core::System& system, const Event& e,
                           std::uint32_t ues, std::uint32_t regions) {
  switch (e.kind) {
    case EventKind::kProcedure:
      system.frontend().start_procedure(UeId(e.ue), e.proc, e.target_region);
      break;
    case EventKind::kIdleMove:
      system.frontend().idle_move(UeId(e.ue), e.target_region);
      system.frontend().start_procedure(UeId(e.ue), core::ProcedureType::kTau,
                                        e.target_region);
      break;
    case EventKind::kTriggerDownlink:
      system.trigger_downlink(UeId(e.ue));
      break;
    case EventKind::kOverload:
      // Signaling storm: every idle UE homed in the stormed region fires
      // at once, in UE order (deterministic on every runtime — the whole
      // population lives on the region's home shard).
      for (std::uint64_t u = e.region; u < ues; u += regions) {
        const UeId ue{u};
        if (system.frontend().in_flight(ue)) continue;
        system.frontend().start_procedure(
            ue, system.frontend().is_attached(ue)
                    ? core::ProcedureType::kServiceRequest
                    : core::ProcedureType::kAttach);
      }
      break;
    default:
      break;  // failure injections are routed separately
  }
}

/// Periodic audits stop shortly after the last scheduled event plus the
/// longest protocol timer, so the audit chain never outlives the drain.
inline SimTime audit_until(const Schedule& s, const core::ProtocolConfig& p) {
  SimTime last;
  for (const Event& e : s.events) last = std::max(last, e.at);
  const SimTime tail = p.ack_timeout + p.ack_timeout;
  return std::min(last + tail, s.horizon);
}

inline void harvest(const core::Metrics& metrics, RunOutcome& out) {
  out.started += metrics.procedures_started;
  out.completed += metrics.procedures_completed;
  out.ryw_metric += metrics.ryw_violations;
  out.fast_handovers += metrics.fast_handovers;
  out.state_fetches += metrics.state_fetches;
  out.attach_sheds += metrics.attach_sheds;
  out.overload_drops += metrics.overload_drops;
  out.nas_retransmissions += metrics.nas_retransmissions;
  out.retx_exhausted += metrics.retx_exhausted;
  out.scale_outs += metrics.scale_outs;
  out.drains += metrics.drains;
  out.handoff_ues += metrics.handoff_ues;
  metrics.registry.for_each_counter(
      [&out](const std::string& key, const obs::Counter& c) {
        constexpr std::string_view kPrefix = "cta.recoveries{";
        if (key.rfind(kPrefix.data(), 0) != 0) return;
        const std::size_t tag = key.find("scenario=");
        if (tag == std::string::npos) return;
        const std::size_t begin = tag + 9;
        std::size_t end = key.find_first_of(",}", begin);
        if (end == std::string::npos) end = key.size();
        out.recoveries[key.substr(begin, end - begin)] += c.value();
      });
}

inline void harvest_checker(const InvariantChecker& checker, RunOutcome& out) {
  out.violation_count += checker.violation_count();
  for (const std::string& v : checker.violations()) {
    if (out.violations.size() < 64) out.violations.push_back(v);
  }
  out.quiesced = out.quiesced && checker.quiesced();
}

}  // namespace detail

inline RunOutcome run_schedule(const Schedule& s, const RunConfig& rc,
                               const core::CostModel& costs) {
  core::ShardedSystem::Config scfg;
  scfg.policy = core::neutrino_policy();
  scfg.topo = make_topology(s);
  scfg.proto = schedule_has_overload(s) ? overload_proto() : chaos_proto();
  scfg.shards = rc.shards;
  scfg.threads = rc.threads;
  core::ShardedSystem sys(scfg, costs);
  const SimTime until = detail::audit_until(s, scfg.proto);
  RunOutcome out;
  std::vector<obs::FlightRecorder> flights;
  if (rc.record_flight) {
    flights.reserve(rc.shards);
    for (std::uint32_t i = 0; i < rc.shards; ++i) {
      flights.emplace_back(rc.flight_capacity);
      sys.attach_flight_recorder(i, flights.back());
    }
  }
  std::vector<std::unique_ptr<InvariantChecker>> checkers;
  checkers.reserve(rc.shards);
  for (std::uint32_t i = 0; i < rc.shards; ++i) {
    checkers.push_back(std::make_unique<InvariantChecker>(
        sys.system(i), rc.audit_interval, until));
    checkers.back()->arm();
    sys.system(i).faults() = rc.faults;
  }
  for (std::uint32_t u = 0; u < s.ues; ++u) {
    const UeId ue{u};
    sys.preattach(ue, u % s.regions);
    checkers[sys.shard_of_ue(ue)]->note_preattach(ue);
  }
  for (const Event& e : s.events) {
    switch (e.kind) {
      case EventKind::kCrashCpf:
        sys.schedule_crash(e.at, CpfId(e.cpf));
        break;
      case EventKind::kRestoreCpf:
        sys.schedule_restore(e.at, CpfId(e.cpf));
        break;
      case EventKind::kCrashCta:
        sys.schedule_cta_crash(e.at, e.region);
        break;
      case EventKind::kScaleOut:
        sys.schedule_scale_out(e.at, CpfId(e.cpf));
        break;
      case EventKind::kDrain:
        sys.schedule_drain(e.at, CpfId(e.cpf));
        break;
      default: {
        core::System& home = sys.system(sys.shard_of_ue(UeId(e.ue)));
        home.loop().schedule_at(
            e.at, [&home, e, ues = s.ues, regions = s.regions] {
              detail::apply_ue_event(home, e, ues, regions);
            });
        break;
      }
    }
  }
  sys.run_until(s.horizon);
  for (auto& checker : checkers) {
    checker->final_check();
    detail::harvest_checker(*checker, out);
  }
  const core::Metrics merged = sys.merged_metrics();
  detail::harvest(merged, out);
  for (std::uint32_t u = 0; u < s.ues; ++u) {
    const UeId ue{u};
    if (sys.system(sys.shard_of_ue(ue)).frontend().in_flight(ue)) ++out.lost;
  }
  for (std::uint32_t i = 0; i < rc.shards; ++i) {
    sys.system(i).detach_invariant_observer();
  }
  if (rc.record_flight) {
    std::vector<const obs::FlightRecorder*> ptrs;
    ptrs.reserve(flights.size());
    for (const obs::FlightRecorder& f : flights) {
      out.flight_events += f.size();
      ptrs.push_back(&f);
    }
    out.flight_json = obs::FlightRecorder::merge_flight(ptrs).dump(2);
  }
  return out;
}

}  // namespace neutrino::chaos
