// Chaos schedule grammar: the replayable unit of a chaos campaign run.
//
// A Schedule is a sorted list of timestamped events over a fixed topology
// slice (regions × cpfs_per_region, a preattached UE population): UE
// workload (procedures, idle moves, downlink triggers) interleaved with
// failure injections (CPF crash/restore, CTA crash). The same Schedule
// drives a ShardedSystem at any shard count, which is what makes
// cross-partition differential checks and shrinking possible.
//
// Serialization: schema "neutrino.chaos-repro" v1, written and read back
// by obs::Json (`obs::Json::parse`), so a failing seed's shrunken
// reproducer is a self-contained artifact:
//
//   { "schema": "neutrino.chaos-repro", "version": 1,
//     "seed": 7, "regions": 4, "cpfs_per_region": 5, "ues": 24,
//     "horizon_ns": 8000000000,
//     "faults": {"cpf_stale_serves": 0, "cta_unaccounted_prunes": 0},
//     "events": [ {"at_ns": 12000, "kind": "procedure", "ue": 3,
//                  "proc": "service_request", "target": 0}, ... ] }
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "core/invariants.hpp"
#include "core/msg.hpp"
#include "obs/json.hpp"

namespace neutrino::chaos {

enum class EventKind : std::uint8_t {
  kProcedure,        // frontend().start_procedure(ue, proc, target)
  kIdleMove,         // frontend().idle_move(ue, target) + a TAU
  kTriggerDownlink,  // network-originated data for an idle UE (paging)
  kCrashCpf,         // crash_cpf (notifying: CTAs learn immediately)
  kRestoreCpf,       // restore_cpf (empty store, bumped epoch)
  kCrashCta,         // crash_cta: permanent, UEs reroute to (r+1)%regions
  kOverload,         // signaling storm: every idle UE homed in `region`
                     // issues a procedure at once (attached -> service
                     // request, detached -> attach). Presence of this kind
                     // switches the run onto bounded queues + NAS
                     // retransmission (see overload_proto in runner.hpp),
                     // so the schedule exercises shed/retry/reattach and
                     // crash-during-retransmit interleavings.
  kScaleOut,         // elastic join: scale_out_cpf(cpf) — re-ring + state
                     // handoff from the pre-churn owners (DESIGN.md §19)
  kDrain,            // elastic leave: drain_cpf(cpf) — handoff, pinned
                     // grace, then retirement via the crash/replay path
};

constexpr std::string_view to_string(EventKind k) {
  switch (k) {
    case EventKind::kProcedure: return "procedure";
    case EventKind::kIdleMove: return "idle_move";
    case EventKind::kTriggerDownlink: return "downlink";
    case EventKind::kCrashCpf: return "crash_cpf";
    case EventKind::kRestoreCpf: return "restore_cpf";
    case EventKind::kCrashCta: return "crash_cta";
    case EventKind::kOverload: return "overload";
    case EventKind::kScaleOut: return "scale_out";
    case EventKind::kDrain: return "drain";
  }
  return "?";
}

inline std::optional<EventKind> parse_event_kind(std::string_view s) {
  for (const EventKind k :
       {EventKind::kProcedure, EventKind::kIdleMove, EventKind::kTriggerDownlink,
        EventKind::kCrashCpf, EventKind::kRestoreCpf, EventKind::kCrashCta,
        EventKind::kOverload, EventKind::kScaleOut, EventKind::kDrain}) {
    if (s == to_string(k)) return k;
  }
  return std::nullopt;
}

inline std::optional<core::ProcedureType> parse_procedure_type(
    std::string_view s) {
  using core::ProcedureType;
  for (const ProcedureType p :
       {ProcedureType::kAttach, ProcedureType::kServiceRequest,
        ProcedureType::kHandover, ProcedureType::kIntraHandover,
        ProcedureType::kReattach, ProcedureType::kDetach, ProcedureType::kTau}) {
    if (s == core::to_string(p)) return p;
  }
  return std::nullopt;
}

/// One timestamped action. Field use depends on `kind`:
///   kProcedure       — ue, proc, target_region (handover destination)
///   kIdleMove        — ue, target_region (new serving region, then TAU)
///   kTriggerDownlink — ue
///   kCrashCpf / kRestoreCpf — cpf
///   kScaleOut / kDrain — cpf (elastic ring join/leave)
///   kCrashCta        — region
///   kOverload        — region (stormed region); ue mirrors it so the
///                      sharded runner routes the event to that region's
///                      home shard
struct Event {
  SimTime at;
  EventKind kind = EventKind::kProcedure;
  std::uint64_t ue = 0;
  core::ProcedureType proc = core::ProcedureType::kServiceRequest;
  std::uint32_t target_region = 0;
  std::uint32_t cpf = 0;
  std::uint32_t region = 0;
};

struct Schedule {
  std::uint64_t seed = 0;
  std::uint32_t regions = 4;
  std::uint32_t cpfs_per_region = 5;
  std::uint32_t ues = 24;
  /// Run the loops to here; generous drain past the last event so every
  /// timeout fires and every in-flight message is delivered or dropped.
  SimTime horizon = SimTime::seconds(8);
  std::vector<Event> events;
};

/// A schedule plus the deliberate-bug knobs active when it failed — the
/// complete recipe for reproducing a run.
struct ScheduleArtifact {
  Schedule schedule;
  core::FaultInjection faults;
};

inline obs::Json to_json(const Event& e) {
  obs::Json j;
  j["at_ns"] = static_cast<std::int64_t>(e.at.ns());
  j["kind"] = to_string(e.kind);
  switch (e.kind) {
    case EventKind::kProcedure:
      j["ue"] = e.ue;
      j["proc"] = core::to_string(e.proc);
      j["target"] = e.target_region;
      break;
    case EventKind::kIdleMove:
      j["ue"] = e.ue;
      j["target"] = e.target_region;
      break;
    case EventKind::kTriggerDownlink:
      j["ue"] = e.ue;
      break;
    case EventKind::kCrashCpf:
    case EventKind::kRestoreCpf:
    case EventKind::kScaleOut:
    case EventKind::kDrain:
      j["cpf"] = e.cpf;
      break;
    case EventKind::kCrashCta:
      j["region"] = e.region;
      break;
    case EventKind::kOverload:
      j["region"] = e.region;
      j["ue"] = e.ue;
      break;
  }
  return j;
}

inline obs::Json to_json(const ScheduleArtifact& art) {
  const Schedule& s = art.schedule;
  obs::Json j;
  j["schema"] = "neutrino.chaos-repro";
  j["version"] = 1;
  j["seed"] = s.seed;
  j["regions"] = s.regions;
  j["cpfs_per_region"] = s.cpfs_per_region;
  j["ues"] = s.ues;
  j["horizon_ns"] = static_cast<std::int64_t>(s.horizon.ns());
  j["faults"]["cpf_stale_serves"] = art.faults.cpf_stale_serves;
  j["faults"]["cta_unaccounted_prunes"] = art.faults.cta_unaccounted_prunes;
  obs::Json& events = j["events"];
  events.make_array();
  for (const Event& e : s.events) events.push_back(to_json(e));
  return j;
}

/// Integer member `key` of `j`; `fallback` when absent or not a number.
inline std::int64_t int_field(const obs::Json& j, std::string_view key,
                              std::int64_t fallback = 0) {
  const obs::Json* v = j.find(key);
  return v ? v->int_or(fallback) : fallback;
}

inline std::optional<Event> event_from_json(const obs::Json& j) {
  const obs::Json* kind = j.find("kind");
  const obs::Json* at = j.find("at_ns");
  if (!kind || !at) return std::nullopt;
  const std::optional<EventKind> k = parse_event_kind(kind->string_or(""));
  if (!k) return std::nullopt;
  Event e;
  e.at = SimTime::nanoseconds(at->int_or(0));
  e.kind = *k;
  e.ue = static_cast<std::uint64_t>(int_field(j, "ue"));
  e.target_region = static_cast<std::uint32_t>(int_field(j, "target"));
  e.cpf = static_cast<std::uint32_t>(int_field(j, "cpf"));
  e.region = static_cast<std::uint32_t>(int_field(j, "region"));
  if (e.kind == EventKind::kProcedure) {
    const obs::Json* proc = j.find("proc");
    if (!proc) return std::nullopt;
    const std::optional<core::ProcedureType> p =
        parse_procedure_type(proc->string_or(""));
    if (!p) return std::nullopt;
    e.proc = *p;
  }
  return e;
}

inline std::optional<ScheduleArtifact> artifact_from_json(const obs::Json& j) {
  const obs::Json* schema = j.find("schema");
  if (!schema || schema->string_or("") != "neutrino.chaos-repro") {
    return std::nullopt;
  }
  ScheduleArtifact art;
  Schedule& s = art.schedule;
  s.seed = static_cast<std::uint64_t>(int_field(j, "seed"));
  s.regions = static_cast<std::uint32_t>(int_field(j, "regions", s.regions));
  s.cpfs_per_region = static_cast<std::uint32_t>(
      int_field(j, "cpfs_per_region", s.cpfs_per_region));
  s.ues = static_cast<std::uint32_t>(int_field(j, "ues", s.ues));
  s.horizon = SimTime::nanoseconds(int_field(j, "horizon_ns", s.horizon.ns()));
  if (const obs::Json* faults = j.find("faults")) {
    art.faults.cpf_stale_serves =
        static_cast<std::uint32_t>(int_field(*faults, "cpf_stale_serves"));
    art.faults.cta_unaccounted_prunes = static_cast<std::uint32_t>(
        int_field(*faults, "cta_unaccounted_prunes"));
  }
  const obs::Json* events = j.find("events");
  if (!events || events->type() != obs::Json::Type::kArray) return std::nullopt;
  s.events.reserve(events->size());
  for (std::size_t i = 0; i < events->size(); ++i) {
    std::optional<Event> e = event_from_json(events->at(i));
    if (!e) return std::nullopt;
    s.events.push_back(*e);
  }
  return art;
}

inline std::optional<ScheduleArtifact> artifact_from_string(
    std::string_view text) {
  const std::optional<obs::Json> doc = obs::Json::parse(text);
  if (!doc) return std::nullopt;
  return artifact_from_json(*doc);
}

}  // namespace neutrino::chaos
