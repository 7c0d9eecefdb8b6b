// Fixed-interval sim-time windowed series (DESIGN.md §15).
//
// A WindowedSeries buckets recordings into consecutive windows of a fixed
// sim-time width: bucket index = at.ns() / window.ns(). It is the only
// time-indexed instrument (the registry's telemetry series, the SLO
// tracker's per-window counts). Series from different shards *merge
// deterministically*: two buckets with the same index combine by the
// series' aggregation kind, so the merged result is a pure function of
// sim-time data — byte-identical across worker-thread counts and across
// runs.
//
// Aggregation kinds:
//   kSum  — per-window deltas (sheds, retransmissions, events executed,
//           cross-shard posts); merge adds same-index buckets.
//   kMax  — per-window high watermarks; merge takes the max.
//   kLast — point samples (queue depth, busy fraction); a later recording
//           in the same window replaces the earlier one. On merge the
//           folded-in bucket wins — well-defined because every sampled
//           series is owned by exactly one shard (labels carry the
//           region/shard), so merge never actually combines two kLast
//           buckets of the same index.
//
// Recording is append-mostly: samplers tick in nondecreasing sim-time, so
// the bucket vector stays sorted by index without searching.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/clock.hpp"

namespace neutrino::obs {

enum class WindowAgg : std::uint8_t {
  kSum = 0,
  kMax = 1,
  kLast = 2,
};

inline const char* window_agg_name(WindowAgg agg) {
  switch (agg) {
    case WindowAgg::kSum:
      return "sum";
    case WindowAgg::kMax:
      return "max";
    case WindowAgg::kLast:
      return "last";
  }
  return "?";
}

class WindowedSeries {
 public:
  struct Bucket {
    std::int64_t index = 0;  ///< window index: at.ns() / window.ns()
    double value = 0.0;
  };

  WindowedSeries() = default;
  WindowedSeries(SimTime window, WindowAgg agg) : window_(window), agg_(agg) {}

  /// Set window width and aggregation. Safe to call repeatedly with the
  /// same parameters (the registry's lookup-create path does); changing
  /// them on a non-empty series is a programming error.
  void configure(SimTime window, WindowAgg agg) {
    assert(buckets_.empty() || (window_ == window && agg_ == agg));
    window_ = window;
    agg_ = agg;
  }

  [[nodiscard]] bool configured() const { return window_.ns() > 0; }
  [[nodiscard]] SimTime window() const { return window_; }
  [[nodiscard]] WindowAgg agg() const { return agg_; }
  [[nodiscard]] const std::vector<Bucket>& buckets() const { return buckets_; }
  [[nodiscard]] bool empty() const { return buckets_.empty(); }

  /// Window-start sim-time of a bucket.
  [[nodiscard]] SimTime bucket_start(const Bucket& b) const {
    return SimTime::nanoseconds(b.index * window_.ns());
  }

  [[nodiscard]] double max() const {
    double m = 0.0;
    for (const Bucket& b : buckets_) m = b.value > m ? b.value : m;
    return m;
  }

  /// Record a value at sim-time `at`. Recordings must arrive in
  /// nondecreasing window order (samplers tick forward in sim-time).
  void record(SimTime at, double value) {
    assert(configured());
    const std::int64_t idx = at.ns() / window_.ns();
    if (!buckets_.empty() && buckets_.back().index == idx) {
      combine(buckets_.back().value, value);
      return;
    }
    assert(buckets_.empty() || buckets_.back().index < idx);
    buckets_.push_back({idx, value});
  }

  /// Deterministic merge-on-join: same-index buckets combine by the
  /// aggregation kind; distinct indices interleave in index order. The
  /// result depends only on the two series' contents, never on thread
  /// scheduling.
  void merge(const WindowedSeries& other) {
    if (other.buckets_.empty()) return;
    if (!configured()) configure(other.window_, other.agg_);
    assert(window_ == other.window_ && agg_ == other.agg_);
    std::vector<Bucket> merged;
    merged.reserve(buckets_.size() + other.buckets_.size());
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < buckets_.size() && b < other.buckets_.size()) {
      if (buckets_[a].index < other.buckets_[b].index) {
        merged.push_back(buckets_[a++]);
      } else if (other.buckets_[b].index < buckets_[a].index) {
        merged.push_back(other.buckets_[b++]);
      } else {
        Bucket combined = buckets_[a++];
        combine(combined.value, other.buckets_[b++].value);
        merged.push_back(combined);
      }
    }
    while (a < buckets_.size()) merged.push_back(buckets_[a++]);
    while (b < other.buckets_.size()) merged.push_back(other.buckets_[b++]);
    buckets_ = std::move(merged);
  }

 private:
  void combine(double& into, double value) const {
    switch (agg_) {
      case WindowAgg::kSum:
        into += value;
        break;
      case WindowAgg::kMax:
        into = into > value ? into : value;
        break;
      case WindowAgg::kLast:
        into = value;
        break;
    }
  }

  SimTime window_;  ///< zero until configured
  WindowAgg agg_ = WindowAgg::kLast;
  std::vector<Bucket> buckets_;  ///< sorted by index, unique indices
};

}  // namespace neutrino::obs
