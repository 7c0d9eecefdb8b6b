// Named, labeled metric instruments backing core::Metrics and the benches.
//
// The registry owns every instrument: counters and windowed series
// (obs/timeseries.hpp, the only time-indexed instrument); the latency
// decomposition belongs to the tracer (obs/trace.hpp). Handles returned
// from counter() / windowed() are stable for the registry's lifetime
// (std::map nodes never move), so hot paths look a metric up once and
// keep the reference. Keys are `name` plus a sorted label set — the same
// (name, labels) pair always yields the same instrument.
//
// Naming convention (see DESIGN.md §10): dotted lowercase path whose first
// segment is the owning component — "core.procedures_completed",
// "cta.log_bytes", "cpf.request_backlog_us", "frontend.completions".
// Units are spelled in the name suffix when not obvious (_ms, _us, _bytes).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "obs/timeseries.hpp"

namespace neutrino::obs {

/// Label set attached to an instrument, e.g. {{"proc","attach"},{"region","0"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic event count. Implicitly converts to its value so legacy
/// `std::uint64_t` counter fields can become `Counter&` without touching
/// call sites (`++m.replays`, `m.replays += n`, `EXPECT_EQ(m.replays, 2u)`).
class Counter {
 public:
  Counter& operator++() {
    ++value_;
    return *this;
  }
  Counter operator++(int) {
    Counter old = *this;
    ++value_;
    return old;
  }
  Counter& operator+=(std::uint64_t n) {
    value_ += n;
    return *this;
  }
  void reset() { value_ = 0; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  operator std::uint64_t() const { return value_; }  // NOLINT(google-explicit-constructor)

  friend std::ostream& operator<<(std::ostream& os, const Counter& c) {
    return os << c.value_;
  }

 private:
  std::uint64_t value_ = 0;
};

/// Owns all instruments. Lookup creates on first use; instruments live as
/// long as the registry (moving the registry moves map ownership, not the
/// nodes, so outstanding references stay valid — core::Metrics relies on
/// this when an ExperimentResult is moved out of run_experiment).
class Registry {
 public:
  Counter& counter(std::string_view name, const Labels& labels = {}) {
    return counters_[key(name, labels)];
  }
  /// Fixed-interval windowed series (DESIGN.md §15). `window`/`agg` apply
  /// on first use; later lookups must pass the same parameters.
  WindowedSeries& windowed(std::string_view name, SimTime window,
                           WindowAgg agg, const Labels& labels = {}) {
    WindowedSeries& w = windowed_[key(name, labels)];
    w.configure(window, agg);
    return w;
  }

  /// Lookup without creation; nullptr if the instrument was never touched.
  [[nodiscard]] const Counter* find_counter(std::string_view name,
                                            const Labels& labels = {}) const {
    return find(counters_, name, labels);
  }
  [[nodiscard]] const WindowedSeries* find_windowed(
      std::string_view name, const Labels& labels = {}) const {
    return find(windowed_, name, labels);
  }

  /// Visitors iterate in key order (name, then labels) — deterministic
  /// export. `f(key, instrument)` where key is "name{k=v,...}" or "name".
  template <class F>
  void for_each_counter(F&& f) const {
    for (const auto& [k, c] : counters_) f(k, c);
  }
  template <class F>
  void for_each_windowed(F&& f) const {
    for (const auto& [k, w] : windowed_) f(k, w);
  }

  /// Fold another registry in (per-shard instruments joining at the end
  /// of a sharded run): counters add, windowed series combine same-index
  /// buckets by their aggregation kind.
  void merge(const Registry& other) {
    for (const auto& [k, c] : other.counters_) counters_[k] += c.value();
    for (const auto& [k, w] : other.windowed_) windowed_[k].merge(w);
  }

  /// Canonical flat key: name, then "{k=v,...}" with labels sorted by key.
  static std::string key(std::string_view name, const Labels& labels) {
    std::string k{name};
    if (!labels.empty()) {
      Labels sorted = labels;
      std::sort(sorted.begin(), sorted.end());
      k += '{';
      for (std::size_t i = 0; i < sorted.size(); ++i) {
        if (i) k += ',';
        k += sorted[i].first;
        k += '=';
        k += sorted[i].second;
      }
      k += '}';
    }
    return k;
  }

 private:
  template <class T>
  static const T* find(const std::map<std::string, T>& m,
                       std::string_view name, const Labels& labels) {
    const auto it = m.find(key(name, labels));
    return it == m.end() ? nullptr : &it->second;
  }

  std::map<std::string, Counter> counters_;
  std::map<std::string, WindowedSeries> windowed_;
};

}  // namespace neutrino::obs
