// Shared real-measurement helpers for the serialization figures (18-20).
//
// These are *measurements of the real codecs*, not simulations. Each
// format is exercised the way its applications use it: sequential formats
// parse into structs; FlatBuffers is consumed through accessors without
// materialization (see FlatBufAccessor).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <vector>

#include "serialize/codec.hpp"

namespace neutrino::bench {

inline std::uint64_t codec_sink = 0;

template <ser::FieldStruct M>
void encode_decode_once(ser::WireFormat format, const M& msg) {
  const Bytes encoded = ser::encode(format, msg);
  codec_sink += encoded.size();
  if (format == ser::WireFormat::kFlatBuffers ||
      format == ser::WireFormat::kOptimizedFlatBuffers) {
    const auto checksum = ser::FlatBufAccessor::access_all<M>(
        encoded, format == ser::WireFormat::kFlatBuffers
                     ? ser::FlatBufMode::kStandard
                     : ser::FlatBufMode::kOptimized);
    codec_sink += checksum.is_ok() ? *checksum : 0;
  } else {
    const auto decoded = ser::decode<M>(format, encoded);
    codec_sink += decoded.is_ok() ? 1u : 0u;
  }
}

/// Encode+decode round trips per timed batch.
inline constexpr int kBatchOps = 256;

/// Times a figure's (format, message) points together. Round after round,
/// every point runs one batch of kBatchOps encode+decode round trips,
/// until the budget is spent; each point keeps its fastest batch mean. On
/// a shared host, load from other tenants comes and goes, sometimes for
/// longer than one point's share of the run: timing the points one after
/// another let such a stretch shift whole points between runs.
/// Interleaved, every point draws its batches from the whole run, as
/// perfbench's codec workload does.
class CodecRounds {
 public:
  /// Adds a point (the message is copied); returns its index for ns().
  template <ser::FieldStruct M>
  std::size_t add(ser::WireFormat format, const M& msg) {
    points_.push_back(Point{[format, msg] {
      for (int i = 0; i < kBatchOps; ++i) encode_decode_once(format, msg);
    }});
    return points_.size() - 1;
  }

  /// One untimed warm-up round, then timed rounds until `budget` is spent.
  void run(std::chrono::milliseconds budget) {
    using Clock = std::chrono::steady_clock;
    for (Point& p : points_) p.batch();
    const auto deadline = Clock::now() + budget;
    while (Clock::now() < deadline) {
      for (Point& p : points_) {
        const auto t0 = Clock::now();
        p.batch();
        const std::chrono::duration<double, std::nano> took =
            Clock::now() - t0;
        p.best_ns = std::min(p.best_ns, took.count() / kBatchOps);
      }
    }
  }

  /// Fastest batch mean of a point, in nanoseconds per round trip.
  [[nodiscard]] double ns(std::size_t point) const {
    return points_[point].best_ns;
  }

 private:
  struct Point {
    std::function<void()> batch;
    double best_ns = std::numeric_limits<double>::infinity();
  };
  std::vector<Point> points_;
};

/// Wall-clock budget per point for the codec figures: 100 ms, spread over
/// the run (5 ms under --smoke).
inline std::chrono::milliseconds codec_budget(bool smoke,
                                              std::size_t points) {
  return std::chrono::milliseconds((smoke ? 5 : 100) *
                                   static_cast<std::int64_t>(points));
}

}  // namespace neutrino::bench
