// Per-procedure latency SLOs with windowed burn-rate tracking.
//
// A target says "p99 of attach PCT stays under 60 ms". Rather than wait
// for an end-of-run percentile, the tracker scores every completed
// procedure against its targets as it lands: a sample above the p99
// target spends error budget. The burn rate over a window is
//
//     burn = (violations / count) / (1 − quantile)
//
// i.e. how many times faster than "exactly on target" the budget is being
// spent — burn 1.0 means the run is tracking precisely at its p99 target,
// burn > 1 means the tail is worse than the target allows. This is the
// standard SRE multi-window burn-rate formulation, applied to sim-time
// windows so it is deterministic and mergeable across shards.
//
// Totals are kept per procedure; the per-window counts are two kSum
// WindowedSeries per procedure (completions and p99 violations), so they
// bucket and merge on join exactly like every other windowed instrument:
// byte-identical across worker-thread counts (DESIGN.md §15).
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "obs/json.hpp"
#include "obs/timeseries.hpp"

namespace neutrino::obs {

struct SloTarget {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  [[nodiscard]] bool enabled() const { return p99_ms > 0.0; }
};

class SloTracker {
 public:
  static constexpr std::size_t kQuantiles = 3;  // p50, p95, p99

  explicit SloTracker(SimTime window) : window_(window) {
    assert(window.ns() > 0);
  }

  /// Register a procedure's targets. `index` is the caller's procedure
  /// type index (core::ProcedureType); `name` labels the report section.
  void set_target(std::size_t index, std::string name, SloTarget target) {
    if (index >= procs_.size()) procs_.resize(index + 1);
    Proc& p = procs_[index];
    p.name = std::move(name);
    p.target = target;
    p.completions.configure(window_, WindowAgg::kSum);
    p.p99_violations.configure(window_, WindowAgg::kSum);
  }

  [[nodiscard]] SimTime window() const { return window_; }

  /// Score one completed procedure. No-op for indices without a target.
  void record(SimTime at, std::size_t index, double pct_ms) {
    if (index >= procs_.size()) return;
    Proc& p = procs_[index];
    if (!p.target.enabled()) return;
    ++p.count;
    const std::array<double, kQuantiles> bounds{
        p.target.p50_ms, p.target.p95_ms, p.target.p99_ms};
    for (std::size_t q = 0; q < kQuantiles; ++q) {
      if (pct_ms > bounds[q]) ++p.violations[q];
    }
    // Both series record every completion, so their buckets share indices.
    p.completions.record(at, 1.0);
    p.p99_violations.record(at, pct_ms > p.target.p99_ms ? 1.0 : 0.0);
  }

  /// Merge another shard's tracker (same window, same target table).
  void merge(const SloTracker& other) {
    assert(window_ == other.window_);
    if (procs_.size() < other.procs_.size()) {
      procs_.resize(other.procs_.size());
    }
    for (std::size_t i = 0; i < other.procs_.size(); ++i) {
      const Proc& src = other.procs_[i];
      Proc& dst = procs_[i];
      if (dst.name.empty()) dst.name = src.name;
      if (!dst.target.enabled()) dst.target = src.target;
      dst.count += src.count;
      for (std::size_t q = 0; q < kQuantiles; ++q) {
        dst.violations[q] += src.violations[q];
      }
      dst.completions.merge(src.completions);
      dst.p99_violations.merge(src.p99_violations);
    }
  }

  /// burn = (violations/count) / (1 − q); 0 when no samples landed.
  static double burn_rate(std::uint64_t violations, std::uint64_t count,
                          double quantile) {
    if (count == 0) return 0.0;
    return (static_cast<double>(violations) / static_cast<double>(count)) /
           (1.0 - quantile);
  }

  /// {window_ms, procs: {name: {targets, count, violations, burn,
  ///  windows: [[t_ms, count, p99_violations, p99_burn], ...]}}}.
  [[nodiscard]] Json json() const {
    static constexpr std::array<double, kQuantiles> kQ{0.50, 0.95, 0.99};
    static constexpr std::array<const char*, kQuantiles> kQName{"p50", "p95",
                                                                "p99"};
    Json j;
    j["window_ms"] = window_.ms();
    Json& procs = j["procs"];
    procs.make_object();
    for (const Proc& p : procs_) {
      if (!p.target.enabled() || p.count == 0) continue;
      Json& entry = procs[p.name];
      Json& targets = entry["targets_ms"];
      targets["p50"] = p.target.p50_ms;
      targets["p95"] = p.target.p95_ms;
      targets["p99"] = p.target.p99_ms;
      entry["count"] = p.count;
      Json& viol = entry["violations"];
      Json& burn = entry["burn"];
      for (std::size_t q = 0; q < kQuantiles; ++q) {
        viol[kQName[q]] = p.violations[q];
        burn[kQName[q]] = burn_rate(p.violations[q], p.count, kQ[q]);
      }
      Json& windows = entry["windows"];
      windows.make_array();
      const auto& counts = p.completions.buckets();
      const auto& violations = p.p99_violations.buckets();
      assert(counts.size() == violations.size());
      for (std::size_t w = 0; w < counts.size(); ++w) {
        const auto count = static_cast<std::uint64_t>(counts[w].value);
        const auto violated = static_cast<std::uint64_t>(violations[w].value);
        Json row;
        row.push_back(p.completions.bucket_start(counts[w]).ms());
        row.push_back(count);
        row.push_back(violated);
        row.push_back(burn_rate(violated, count, kQ[kQuantiles - 1]));
        windows.push_back(std::move(row));
      }
    }
    return j;
  }

  [[nodiscard]] bool any_samples() const {
    for (const Proc& p : procs_) {
      if (p.count > 0) return true;
    }
    return false;
  }

 private:
  struct Proc {
    std::string name;
    SloTarget target;
    std::uint64_t count = 0;
    std::array<std::uint64_t, kQuantiles> violations{};
    /// Per window: completions, and how many of them exceeded p99.
    WindowedSeries completions;
    WindowedSeries p99_violations;
  };

  SimTime window_;
  std::vector<Proc> procs_;
};

}  // namespace neutrino::obs
