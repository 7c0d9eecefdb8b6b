// The control-procedure arrival record every generator in src/traffic
// emits, the CSV trace files in src/trace store, and the simulator
// replays (core::System::Arrival::of), with its documented total order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "core/msg.hpp"

namespace neutrino::traffic {

/// One control-procedure arrival.
struct TraceRecord {
  SimTime at;
  UeId ue;
  core::ProcedureType type = core::ProcedureType::kAttach;
  std::uint32_t target_region = 0;  // handovers
};

/// The documented total order over trace records: (at, ue, type). Streams
/// produced by independent generators (one per device class, one per
/// shard, ...) merge deterministically under this order regardless of
/// generation order — the same construction as the flight recorder's
/// (time, shard, seq) merge. Records identical in all three keys are
/// interchangeable arrivals, so any tie-break among them is immaterial.
inline bool record_before(const TraceRecord& a, const TraceRecord& b) {
  if (a.at != b.at) return a.at < b.at;
  if (a.ue.value() != b.ue.value()) return a.ue.value() < b.ue.value();
  return static_cast<int>(a.type) < static_cast<int>(b.type);
}

/// Sort a record stream into the (at, ue, type) total order.
inline void sort_records(std::vector<TraceRecord>& records) {
  std::sort(records.begin(), records.end(), record_before);
}

/// K-way merge of streams each already sorted by record_before; the
/// result is the (at, ue, type)-sorted concatenation. Pairwise std::merge
/// keeps this O(n log k) without a heap.
inline std::vector<TraceRecord> merge_sorted_records(
    std::vector<std::vector<TraceRecord>> streams) {
  while (streams.size() > 1) {
    std::vector<std::vector<TraceRecord>> next;
    next.reserve(streams.size() / 2 + 1);
    for (std::size_t i = 0; i + 1 < streams.size(); i += 2) {
      std::vector<TraceRecord> merged;
      merged.reserve(streams[i].size() + streams[i + 1].size());
      std::merge(streams[i].begin(), streams[i].end(),
                 streams[i + 1].begin(), streams[i + 1].end(),
                 std::back_inserter(merged), record_before);
      next.push_back(std::move(merged));
    }
    if (streams.size() % 2 == 1) next.push_back(std::move(streams.back()));
    streams = std::move(next);
  }
  return streams.empty() ? std::vector<TraceRecord>{} : std::move(streams[0]);
}

}  // namespace neutrino::traffic
