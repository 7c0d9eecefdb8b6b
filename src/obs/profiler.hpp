// In-process phase profiler for the sharded runtime (DESIGN.md §15).
//
// Attributes *wall-clock* time to runtime phases — window scheduling,
// per-shard event dispatch, barrier waits, cross-shard outbox drain,
// codec/export work — answering "where does the sharded sync overhead
// go?" (ROADMAP item 3). Lanes are shards for dispatch and threads for
// barrier waits, outbox drains and window planning; lane 0 is the thread
// that called run_until().
//
// DETERMINISM RULE: everything here is wall-clock and therefore
// nondeterministic by nature. Profiler output must only ever appear in
// the report's "profiler" section (attach via bench_util), never in
// counters/time-series/SLO sections that determinism tests compare
// byte-for-byte. The simulation itself never reads a profiler value.
//
// Overhead: a scope is two steady_clock reads and two relaxed atomic adds;
// a null profiler pointer costs one branch. Slots are cache-line padded
// per lane so concurrent shards don't false-share.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/json.hpp"

namespace neutrino::obs {

enum class Phase : std::uint8_t {
  kSchedule = 0,     ///< window planning + trace replay scheduling
  kDispatch = 1,     ///< per-shard EventLoop::run_until inside a window
  kBarrierWait = 2,  ///< start/done barrier arrive_and_wait
  kChannelDrain = 3, ///< a lane draining its own shards' inbound channels
  kCodec = 4,        ///< encode/export work (trace JSON, golden vectors)
  kOther = 5,
};
inline constexpr std::size_t kPhases = 6;

inline const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kSchedule:
      return "schedule";
    case Phase::kDispatch:
      return "dispatch";
    case Phase::kBarrierWait:
      return "barrier_wait";
    case Phase::kChannelDrain:
      return "channel_drain";
    case Phase::kCodec:
      return "codec";
    case Phase::kOther:
      return "other";
  }
  return "?";
}

class PhaseProfiler {
 public:
  /// `lanes` ≥ max(shards, threads): dispatch indexes by shard; barrier
  /// waits, drains and planning by thread lane.
  explicit PhaseProfiler(std::size_t lanes) : lanes_(lanes == 0 ? 1 : lanes) {
    slots_ = std::vector<Lane>(lanes_);
  }

  class Scope {
   public:
    Scope(PhaseProfiler* p, std::size_t lane, Phase phase)
        : p_(p), lane_(lane), phase_(phase) {
      if (p_ != nullptr) start_ = std::chrono::steady_clock::now();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Charge the whole scope to `phase` instead (decided mid-scope).
    void set_phase(Phase phase) { phase_ = phase; }
    ~Scope() {
      if (p_ == nullptr) return;
      const auto end = std::chrono::steady_clock::now();
      p_->add(lane_, phase_,
              static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      end - start_)
                      .count()));
    }

   private:
    PhaseProfiler* p_;
    std::size_t lane_;
    Phase phase_;
    std::chrono::steady_clock::time_point start_;
  };

  /// Null-safe scope helper: `auto s = PhaseProfiler::scoped(p, lane, ph);`
  /// is a no-op (one branch) when `p` is null.
  static Scope scoped(PhaseProfiler* p, std::size_t lane, Phase phase) {
    return Scope{p, lane, phase};
  }

  void add(std::size_t lane, Phase phase, std::uint64_t ns) {
    Cell& c = slots_[lane % lanes_].cells[static_cast<std::size_t>(phase)];
    c.ns.fetch_add(ns, std::memory_order_relaxed);
    c.calls.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t lanes() const { return lanes_; }

  [[nodiscard]] std::uint64_t total_ns(Phase phase) const {
    std::uint64_t total = 0;
    for (const Lane& lane : slots_) {
      total += lane.cells[static_cast<std::size_t>(phase)].ns.load(
          std::memory_order_relaxed);
    }
    return total;
  }

  [[nodiscard]] std::uint64_t lane_ns(std::size_t lane, Phase phase) const {
    return slots_[lane % lanes_]
        .cells[static_cast<std::size_t>(phase)]
        .ns.load(std::memory_order_relaxed);
  }

  /// {phases: {name: {ns, calls, share}}, lanes: [[ns per phase], ...]}.
  /// share = phase ns / total ns across all phases (0 when nothing ran).
  [[nodiscard]] Json json() const {
    std::uint64_t grand = 0;
    for (std::size_t p = 0; p < kPhases; ++p) {
      grand += total_ns(static_cast<Phase>(p));
    }
    Json j;
    Json& phases = j["phases"];
    phases.make_object();
    for (std::size_t p = 0; p < kPhases; ++p) {
      const Phase phase = static_cast<Phase>(p);
      std::uint64_t ns = 0;
      std::uint64_t calls = 0;
      for (const Lane& lane : slots_) {
        ns += lane.cells[p].ns.load(std::memory_order_relaxed);
        calls += lane.cells[p].calls.load(std::memory_order_relaxed);
      }
      if (calls == 0) continue;
      Json& entry = phases[phase_name(phase)];
      entry["ns"] = ns;
      entry["calls"] = calls;
      entry["share"] = grand > 0 ? static_cast<double>(ns) /
                                       static_cast<double>(grand)
                                 : 0.0;
    }
    Json& lanes = j["lane_ns"];
    lanes.make_array();
    for (const Lane& lane : slots_) {
      Json row;
      row.make_array();
      for (std::size_t p = 0; p < kPhases; ++p) {
        row.push_back(lane.cells[p].ns.load(std::memory_order_relaxed));
      }
      lanes.push_back(std::move(row));
    }
    return j;
  }

 private:
  struct Cell {
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> calls{0};
  };
  struct alignas(64) Lane {
    std::array<Cell, kPhases> cells;
  };

  std::size_t lanes_;
  std::vector<Lane> slots_;
};

}  // namespace neutrino::obs
