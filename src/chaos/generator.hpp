// Seeded random failure-schedule generator.
//
// Produces Schedules that compose all four recovery scenarios of the
// paper's Fig. 5 — backup failover, mid-procedure log replay, whole
// replica-set loss (Re-Attach), and CTA failure — on top of a mixed
// procedure workload, under two structural constraints:
//
//  * Liveness: every region keeps at least one live CPF at all times
//    (crash/restore intervals are tracked and a victim is rejected if it
//    would leave its region empty), so recovery always has somewhere to
//    promote or rebuild. Whole-set wipes still exercise the Re-Attach
//    path because the *replica set* dies even though the region doesn't.
//  * Shard blocks: mobility targets and CTA-crash reroutes stay inside
//    the UE's home shard block (regions are block-partitioned across
//    `shards`), so the identical schedule is valid on one shard and on
//    any ShardedSystem configuration up to that shard count.
//
// Generation is a pure function of (config, seed): the same pair always
// yields byte-identical schedules, which the shrinker and the replay
// artifacts rely on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "chaos/schedule.hpp"
#include "common/rng.hpp"
#include "core/system.hpp"

namespace neutrino::chaos {

struct GeneratorConfig {
  std::uint32_t regions = 4;
  std::uint32_t cpfs_per_region = 5;
  std::uint32_t ues = 24;
  /// Shard-count the schedule must stay valid for (1 = no constraint
  /// beyond a single shard). Mobility and CTA crashes are confined to
  /// per-shard region blocks of ceil(regions/shards).
  std::uint32_t shards = 1;
  std::uint32_t actions = 120;
  std::uint32_t failure_bursts = 6;
  /// Max CPFs crashed per burst (cascading failures).
  std::uint32_t max_cascade = 3;
  double cta_crash_prob = 0.25;
  /// Signaling storms (kOverload events): each hits one random region.
  /// Any value > 0 also flips the runner onto bounded queues + NAS
  /// retransmission for the whole run (see overload_proto). 0 keeps
  /// generation byte-identical to pre-overload schedules for a seed.
  std::uint32_t overload_bursts = 0;
  /// Probability of one targeted burst killing a sampled UE's entire
  /// replica set (primary + all backups) — the deterministic way to reach
  /// Fig. 5's "no usable replica" Re-Attach scenario.
  double targeted_wipe_prob = 0.5;
  /// Elastic churn (DESIGN.md §19): each event drains one CPF somewhere
  /// in the window and usually re-admits it later (kDrain/kScaleOut
  /// pair); some drains stay out through the horizon. Drawn LAST — after
  /// overload — so churn_events == 0 keeps every existing seed's
  /// schedule byte-identical.
  std::uint32_t churn_events = 0;
  /// Probability a drained CPF never rejoins (retired for good).
  double churn_permanent_prob = 0.25;
  SimTime window = SimTime::seconds(3);
  SimTime drain = SimTime::seconds(5);
  SimTime restore_delay_mean = SimTime::milliseconds(250);
};

namespace detail {

/// Crash/restore bookkeeping for the liveness constraint.
class DownIntervals {
 public:
  DownIntervals(std::uint32_t cpfs, std::uint32_t cpfs_per_region)
      : per_cpf_(cpfs), cpfs_per_region_(cpfs_per_region) {}

  [[nodiscard]] bool victim_free(std::uint32_t cpf, SimTime from,
                                 SimTime to) const {
    for (const auto& [a, b] : per_cpf_[cpf]) {
      if (a < to && from < b) return false;
    }
    return true;
  }

  /// Conservative region-liveness test: counts same-region CPFs whose
  /// down interval overlaps [from, to) at all (as if concurrent).
  [[nodiscard]] bool region_keeps_one(std::uint32_t cpf, SimTime from,
                                      SimTime to) const {
    const std::uint32_t region = cpf / cpfs_per_region_;
    std::uint32_t down = 0;
    for (std::uint32_t c = region * cpfs_per_region_;
         c < (region + 1) * cpfs_per_region_; ++c) {
      if (!victim_free(c, from, to)) ++down;
    }
    return down + 1 < cpfs_per_region_;
  }

  void add(std::uint32_t cpf, SimTime from, SimTime to) {
    per_cpf_[cpf].emplace_back(from, to);
  }

 private:
  std::vector<std::vector<std::pair<SimTime, SimTime>>> per_cpf_;
  std::uint32_t cpfs_per_region_;
};

}  // namespace detail

/// Generate a schedule. `oracle` (any System over the same topology) is
/// only consulted for replica placement when emitting a targeted
/// whole-set wipe; pass nullptr to disable targeted wipes.
inline Schedule generate(const GeneratorConfig& cfg, std::uint64_t seed,
                         const core::System* oracle = nullptr) {
  Schedule s;
  s.seed = seed;
  s.regions = cfg.regions;
  s.cpfs_per_region = cfg.cpfs_per_region;
  s.ues = cfg.ues;
  s.horizon = cfg.window + cfg.drain;

  Rng rng(seed);
  const std::uint32_t regions = cfg.regions;
  const std::uint32_t shards = std::max<std::uint32_t>(1, cfg.shards);
  const std::uint32_t per_shard = (regions + shards - 1) / shards;
  const auto block_of = [per_shard](std::uint32_t r) { return r / per_shard; };
  const auto uniform_in_window = [&rng, &cfg] {
    return SimTime::nanoseconds(
        1 + static_cast<std::int64_t>(
                rng.next_below(static_cast<std::uint64_t>(cfg.window.ns()))));
  };

  // Regions a UE homed in `home` may move to (same shard block, != home).
  const auto move_targets = [&](std::uint32_t home) {
    std::vector<std::uint32_t> out;
    for (std::uint32_t r = 0; r < regions; ++r) {
      if (r != home && block_of(r) == block_of(home)) out.push_back(r);
    }
    return out;
  };

  // --- UE workload -------------------------------------------------------
  // `nominal` optimistically tracks where each UE ends up after the moves
  // we emit; it only steers target choice (any in-block target is valid
  // protocol-wise even if a crash diverted the UE meanwhile).
  std::vector<std::uint32_t> nominal(cfg.ues);
  for (std::uint32_t u = 0; u < cfg.ues; ++u) nominal[u] = u % regions;

  for (std::uint32_t i = 0; i < cfg.actions; ++i) {
    Event e;
    e.at = uniform_in_window();
    const auto ue = rng.next_below(cfg.ues);
    e.ue = ue;
    const std::uint32_t home = static_cast<std::uint32_t>(ue) % regions;
    const std::vector<std::uint32_t> targets = move_targets(home);
    const double roll = rng.next_double();
    if (roll < 0.40) {
      e.kind = EventKind::kProcedure;
      e.proc = core::ProcedureType::kServiceRequest;
    } else if (roll < 0.55) {
      e.kind = EventKind::kProcedure;
      if (!targets.empty()) {
        std::uint32_t t = targets[rng.next_below(targets.size())];
        if (t == nominal[ue] && targets.size() > 1) {
          t = targets[(std::find(targets.begin(), targets.end(), t) -
                       targets.begin() + 1) %
                      targets.size()];
        }
        e.proc = core::ProcedureType::kHandover;
        e.target_region = t;
        nominal[ue] = t;
      } else {
        e.proc = core::ProcedureType::kIntraHandover;
        e.target_region = home;
      }
    } else if (roll < 0.67) {
      if (!targets.empty()) {
        e.kind = EventKind::kIdleMove;
        const std::uint32_t t = targets[rng.next_below(targets.size())];
        e.target_region = t;
        nominal[ue] = t;
      } else {
        e.kind = EventKind::kProcedure;
        e.proc = core::ProcedureType::kTau;
      }
    } else if (roll < 0.74) {
      e.kind = EventKind::kProcedure;
      e.proc = core::ProcedureType::kDetach;
    } else if (roll < 0.82) {
      e.kind = EventKind::kProcedure;
      e.proc = core::ProcedureType::kAttach;
    } else {
      e.kind = EventKind::kTriggerDownlink;
    }
    s.events.push_back(e);
  }

  // --- CPF failure bursts ------------------------------------------------
  const std::uint32_t total_cpfs = regions * cfg.cpfs_per_region;
  detail::DownIntervals down(total_cpfs, cfg.cpfs_per_region);
  const auto restore_delay = [&rng, &cfg] {
    const double mean = static_cast<double>(cfg.restore_delay_mean.ns());
    const double d = rng.next_exponential(mean);
    return SimTime::nanoseconds(std::max<std::int64_t>(
        SimTime::milliseconds(50).ns(), static_cast<std::int64_t>(d)));
  };
  const auto try_crash = [&](std::uint32_t cpf, SimTime at) {
    const SimTime back_at = at + restore_delay();
    if (!down.victim_free(cpf, at, back_at)) return false;
    if (!down.region_keeps_one(cpf, at, back_at)) return false;
    down.add(cpf, at, back_at);
    Event crash;
    crash.at = at;
    crash.kind = EventKind::kCrashCpf;
    crash.cpf = cpf;
    s.events.push_back(crash);
    Event restore;
    restore.at = back_at;
    restore.kind = EventKind::kRestoreCpf;
    restore.cpf = cpf;
    s.events.push_back(restore);
    return true;
  };

  for (std::uint32_t b = 0; b < cfg.failure_bursts; ++b) {
    const SimTime at = uniform_in_window();
    const std::uint32_t cascade =
        1 + static_cast<std::uint32_t>(rng.next_below(cfg.max_cascade));
    std::uint32_t placed = 0;
    for (std::uint32_t attempt = 0;
         attempt < cascade * 4 && placed < cascade; ++attempt) {
      const auto cpf = static_cast<std::uint32_t>(rng.next_below(total_cpfs));
      const SimTime stagger =
          at + SimTime::microseconds(static_cast<std::int64_t>(placed) * 50);
      if (try_crash(cpf, stagger)) ++placed;
    }
  }

  // --- Targeted whole-replica-set wipe (Fig. 5 scenario 3) ---------------
  if (oracle != nullptr && rng.next_bool(cfg.targeted_wipe_prob)) {
    const auto ue = UeId(rng.next_below(cfg.ues));
    const std::uint32_t home =
        static_cast<std::uint32_t>(ue.value()) % regions;
    const SimTime at = uniform_in_window();
    std::vector<std::uint32_t> victims;
    victims.push_back(oracle->primary_cpf_for(ue, home).value());
    for (const CpfId b : oracle->backups_for(ue, home)) {
      if (std::find(victims.begin(), victims.end(), b.value()) ==
          victims.end()) {
        victims.push_back(b.value());
      }
    }
    // All-or-nothing: the scenario needs the whole set down together.
    bool ok = true;
    const SimTime hold = at + SimTime::milliseconds(100);
    for (const std::uint32_t v : victims) {
      if (!down.victim_free(v, at, hold) || !down.region_keeps_one(v, at, hold)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      for (const std::uint32_t v : victims) try_crash(v, at);
    }
  }

  // --- CTA crash (Fig. 5 scenario 4; permanent, at most one) -------------
  if (regions > 1 && rng.next_bool(cfg.cta_crash_prob)) {
    std::vector<std::uint32_t> eligible;
    for (std::uint32_t r = 0; r < regions; ++r) {
      // The reroute target (r+1)%regions must share r's shard block, or
      // the sharded runtimes could not run this schedule.
      if (block_of((r + 1) % regions) == block_of(r)) eligible.push_back(r);
    }
    if (!eligible.empty()) {
      Event e;
      e.at = uniform_in_window();
      e.kind = EventKind::kCrashCta;
      e.region = eligible[rng.next_below(eligible.size())];
      s.events.push_back(e);
    }
  }

  // --- Signaling storms (overload control, DESIGN.md §13) ----------------
  // Drawn last so overload_bursts == 0 reproduces pre-overload schedules
  // byte-for-byte. Storms land anywhere in the window, so some overlap
  // crash intervals — that is the crash-during-retransmit coverage.
  for (std::uint32_t b = 0; b < cfg.overload_bursts; ++b) {
    Event e;
    e.at = uniform_in_window();
    e.kind = EventKind::kOverload;
    e.region = static_cast<std::uint32_t>(rng.next_below(regions));
    e.ue = e.region;  // storm population is homed here -> home-shard routing
    s.events.push_back(e);
  }

  // --- Elastic churn (DESIGN.md §19) -------------------------------------
  // Drawn after overload (the same byte-identity anchor pattern): with
  // churn_events == 0 no draw happens, so pre-elastic schedules reproduce
  // byte-for-byte. A drained CPF counts as down for the liveness
  // constraint from the drain until its re-admission (or the horizon), so
  // every region keeps a live in-ring member; crashes whose intervals
  // collide with churn windows are the wanted crash-during-handoff
  // coverage.
  for (std::uint32_t b = 0; b < cfg.churn_events; ++b) {
    for (std::uint32_t attempt = 0; attempt < 4; ++attempt) {
      const auto cpf = static_cast<std::uint32_t>(rng.next_below(total_cpfs));
      const SimTime at = uniform_in_window();
      const bool permanent = rng.next_bool(cfg.churn_permanent_prob);
      const SimTime back =
          permanent ? s.horizon
                    : at + SimTime::milliseconds(300) + restore_delay();
      if (!down.victim_free(cpf, at, back) ||
          !down.region_keeps_one(cpf, at, back)) {
        continue;  // redraw: would collide or empty the region's ring
      }
      down.add(cpf, at, back);
      Event drain;
      drain.at = at;
      drain.kind = EventKind::kDrain;
      drain.cpf = cpf;
      s.events.push_back(drain);
      if (!permanent && back < s.horizon) {
        Event join;
        join.at = back;
        join.kind = EventKind::kScaleOut;
        join.cpf = cpf;
        s.events.push_back(join);
      }
      break;
    }
  }

  std::stable_sort(s.events.begin(), s.events.end(),
                   [](const Event& a, const Event& b) { return a.at < b.at; });
  return s;
}

}  // namespace neutrino::chaos
