// Flight recorder: a bounded ring of recent structured events.
//
// Answers "what led up to it": node crashes/restores, overload sheds and
// drops, NAS retransmissions and budget exhaustions, reattaches. Each
// System (one per shard in a sharded run) carries its own recorder; the
// chaos harness dumps the merged ring next to the `.chaos-repro` artifact
// when an invariant trips, so every reproducer ships with the seconds of
// history before the violation.
//
// Determinism: events are stamped with sim-time and a per-recorder
// sequence number assigned in execution order, which for a single shard is
// thread-count independent (a shard's intra-window execution is
// sequential). merge_flight() orders the union by (time, shard, seq), so
// the merged dump is byte-identical across worker-thread counts too.
// Wall-clock never enters a flight record.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/clock.hpp"
#include "obs/json.hpp"

namespace neutrino::obs {

class FlightRecorder {
 public:
  enum class Kind : std::uint8_t {
    kCrashCpf = 0,
    kCrashCta,
    kRestoreCpf,
    kAttachShed,      ///< new attach rejected at a bounded queue
    kOverloadDrop,    ///< non-attach job rejected at a bounded queue
    kNasRetx,         ///< frontend retransmission timer fired
    kRetxExhausted,   ///< retry budget spent; UE falls back to re-attach
    kReattach,        ///< recovery re-attach started
    kViolation,       ///< invariant observer flagged this run
    kScaleOutCpf,     ///< CPF joined the rings (elastic scale-out)
    kDrainCpf,        ///< CPF left the rings (elastic drain; "retire" when
                      ///< the grace expired and it actually went down)
    kHandoff,         ///< one UE's state shipped to its new ring owner
  };

  struct Event {
    SimTime at;
    std::uint64_t seq = 0;  ///< per-recorder, execution order
    Kind kind = Kind::kCrashCpf;
    std::int64_t a = -1;  ///< primary id (cpf, cta, ue — kind-dependent)
    std::int64_t b = -1;  ///< secondary id (region, class — kind-dependent)
    const char* detail = "";  ///< static string; never owned
  };

  explicit FlightRecorder(std::size_t capacity = 256)
      : capacity_(capacity == 0 ? 1 : capacity) {
    ring_.reserve(capacity_);
  }

  static const char* kind_name(Kind k) {
    switch (k) {
      case Kind::kCrashCpf:
        return "crash_cpf";
      case Kind::kCrashCta:
        return "crash_cta";
      case Kind::kRestoreCpf:
        return "restore_cpf";
      case Kind::kAttachShed:
        return "attach_shed";
      case Kind::kOverloadDrop:
        return "overload_drop";
      case Kind::kNasRetx:
        return "nas_retx";
      case Kind::kRetxExhausted:
        return "retx_exhausted";
      case Kind::kReattach:
        return "reattach";
      case Kind::kViolation:
        return "violation";
      case Kind::kScaleOutCpf:
        return "scale_out_cpf";
      case Kind::kDrainCpf:
        return "drain_cpf";
      case Kind::kHandoff:
        return "handoff";
    }
    return "?";
  }

  void record(SimTime at, Kind kind, std::int64_t a = -1, std::int64_t b = -1,
              const char* detail = "") {
    Event e{at, total_++, kind, a, b, detail};
    if (ring_.size() < capacity_) {
      ring_.push_back(e);
      return;
    }
    ring_[head_] = e;
    head_ = (head_ + 1) % capacity_;
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  /// Events recorded over the recorder's lifetime (retained + evicted).
  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// Events pushed out of the ring by later ones.
  [[nodiscard]] std::uint64_t dropped() const { return total_ - ring_.size(); }

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<Event> recent() const {
    std::vector<Event> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

  /// Merge several shards' rings into one chronological dump. Events sort
  /// by (sim-time, shard, per-recorder seq) — a total order independent of
  /// worker-thread scheduling. `recorders[i]` may be null (skipped).
  static Json merge_flight(const std::vector<const FlightRecorder*>& recorders) {
    struct Tagged {
      Event e;
      std::size_t shard;
    };
    std::vector<Tagged> all;
    std::uint64_t dropped = 0;
    for (std::size_t s = 0; s < recorders.size(); ++s) {
      if (recorders[s] == nullptr) continue;
      dropped += recorders[s]->dropped();
      for (const Event& e : recorders[s]->recent()) all.push_back({e, s});
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const Tagged& x, const Tagged& y) {
                       if (x.e.at.ns() != y.e.at.ns())
                         return x.e.at.ns() < y.e.at.ns();
                       if (x.shard != y.shard) return x.shard < y.shard;
                       return x.e.seq < y.e.seq;
                     });
    Json doc;
    doc["schema"] = "neutrino.flight-recorder";
    doc["version"] = std::int64_t{1};
    doc["dropped"] = static_cast<std::int64_t>(dropped);
    Json& events = doc["events"];
    events.make_array();
    for (const Tagged& t : all) {
      events.push_back(event_json(t.e, t.shard));
    }
    return doc;
  }

 private:
  static Json event_json(const Event& e, std::size_t shard) {
    Json j;
    j["t_ms"] = e.at.ms();
    j["shard"] = shard;
    j["seq"] = static_cast<std::int64_t>(e.seq);
    j["kind"] = kind_name(e.kind);
    if (e.a >= 0) j["a"] = e.a;
    if (e.b >= 0) j["b"] = e.b;
    if (e.detail != nullptr && e.detail[0] != '\0') j["detail"] = e.detail;
    return j;
  }

  const std::size_t capacity_;
  std::vector<Event> ring_;
  std::size_t head_ = 0;  ///< index of the oldest retained event once full
  std::uint64_t total_ = 0;
};

}  // namespace neutrino::obs
