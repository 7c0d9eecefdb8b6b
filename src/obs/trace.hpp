// Per-procedure trace recorder.
//
// A Span covers one UE control procedure from the frontend's start to its
// completion, including any Re-Attach continuation spawned by failure
// recovery. The core reports hop events against sim-time — propagation on
// each link, queueing and service at every pool (CTA, CPF request core,
// UPF), serialization where it sits on the critical path — and the tracer
// folds them into a latency decomposition whose components tile the
// procedure completion time exactly:
//
//   * every hop interval is clamped to the span's not-yet-accounted window
//     (a watermark), so overlapping or off-critical-path work never double
//     counts;
//   * whatever remains unattributed when the span ends is charged to
//     HopClass::kOther, so the components sum to the PCT by construction.
//
// Cost model: the core holds a `ProcTracer*` that is null by default;
// every instrumentation site is a pointer test and nothing else when
// tracing is off. With tracing on, event recording (the full hop list) is
// separately switchable from decomposition folding (the tracer's own
// per-procedure table, `decomposition()`), so large bench runs can
// decompose millions of procedures without retaining timelines.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/stats.hpp"
#include "core/msg.hpp"
#include "obs/json.hpp"

namespace neutrino::obs {

/// Where a slice of procedure time was spent.
enum class HopClass : std::uint8_t {
  kPropagation,    // on the wire between nodes
  kQueueing,       // waiting for a pool core
  kService,        // being processed (includes CTA log append)
  kSerialization,  // state encode/decode on the critical path
  kOther,          // unattributed remainder (UE think time, model gaps)
};
inline constexpr std::size_t kHopClasses = 5;

constexpr std::string_view to_string(HopClass c) {
  switch (c) {
    case HopClass::kPropagation: return "propagation";
    case HopClass::kQueueing: return "queueing";
    case HopClass::kService: return "service";
    case HopClass::kSerialization: return "serialization";
    case HopClass::kOther: return "other";
  }
  return "?";
}

/// One recorded hop. `node` is a short static label ("cta", "cpf",
/// "upf", "ue->cta", ...) and `node_id` the instance (region / CPF id).
struct HopEvent {
  SimTime start;
  SimTime end;
  HopClass cls = HopClass::kOther;
  const char* node = "";
  std::uint32_t node_id = 0;
  core::MsgKind msg = core::MsgKind::kAttachRequest;
};

/// One procedure's trace.
struct Span {
  UeId ue;
  core::ProcedureType type = core::ProcedureType::kAttach;
  std::uint64_t first_seq = 0;  // proc_seq at begin()
  std::uint64_t last_seq = 0;   // grows when recovery re-attaches
  SimTime start;
  SimTime end;
  bool completed = false;
  bool under_failure = false;   // touched a recovery path
  bool reattached = false;      // continued via Re-Attach
  bool ryw_violation = false;
  std::vector<HopEvent> events;           // empty unless record_events
  std::array<std::int64_t, kHopClasses> decomp_ns{};
  SimTime accounted_until;                // decomposition watermark

  /// One non-overlapping slice of attributed time. Hops are charged when
  /// they are *scheduled*, so a slice can reach past the completion the
  /// frontend later observes; decomp_ns is settled from these at end(),
  /// clamped to [start, end], and the vector is then released.
  struct Charge {
    SimTime from;
    SimTime to;
    HopClass cls = HopClass::kOther;
  };
  std::vector<Charge> charges;

  [[nodiscard]] SimTime duration() const { return end - start; }
  [[nodiscard]] double duration_ms() const { return duration().ms(); }
  [[nodiscard]] std::int64_t attributed_ns() const {
    std::int64_t sum = 0;
    for (const std::int64_t v : decomp_ns) sum += v;
    return sum;
  }

  [[nodiscard]] Json to_json() const {
    Json j;
    j["ue"] = ue.value();
    j["proc"] = core::to_string(type);
    j["seq_first"] = first_seq;
    j["seq_last"] = last_seq;
    j["start_ms"] = start.ms();
    j["end_ms"] = end.ms();
    j["pct_ms"] = duration_ms();
    j["completed"] = completed;
    j["under_failure"] = under_failure;
    j["reattached"] = reattached;
    j["ryw_violation"] = ryw_violation;
    Json& decomp = j["decomposition_ms"];
    for (std::size_t c = 0; c < kHopClasses; ++c) {
      decomp[to_string(static_cast<HopClass>(c))] =
          static_cast<double>(decomp_ns[c]) / 1e6;
    }
    Json& hops = j["hops"];
    hops.make_array();
    for (const HopEvent& e : events) {
      Json h;
      h["t_ms"] = e.start.ms();
      h["dur_us"] = static_cast<double>((e.end - e.start).ns()) / 1e3;
      h["class"] = to_string(e.cls);
      h["node"] = std::string{e.node} + std::to_string(e.node_id);
      h["msg"] = core::to_string(e.msg);
      hops.push_back(std::move(h));
    }
    return j;
  }
};

struct TracerConfig {
  /// Retain per-span hop timelines (needed for dumps; costs memory).
  bool record_events = true;
  /// Keep every completed span (tests, small demos). Off: only the
  /// slowest / failed retention buffers below survive completion.
  bool keep_all = false;
  std::size_t keep_slowest = 16;
  std::size_t keep_failed = 64;
  /// Fold every completed span into decomposition() (bench reports'
  /// "decomposition_ms").
  bool decompose = false;
};

/// Every folded span of one procedure type, in ms: one recorder per hop
/// class plus the PCT. Each completion feeds all six (zeros included), so
/// the component means sum to the total mean.
struct Decomposition {
  std::array<LatencyRecorder, kHopClasses> component;
  LatencyRecorder total;
};

/// Records spans for in-flight procedures and retains the interesting
/// completed ones; with TracerConfig::decompose, folds each completed
/// span's decomposition into a per-procedure-type table.
class ProcTracer {
 public:
  explicit ProcTracer(TracerConfig cfg = {}) : cfg_(cfg) {}

  // ---- span lifecycle (called by the frontend) ----

  void begin(UeId ue, std::uint64_t seq, core::ProcedureType type,
             SimTime now) {
    Span& s = active_[ue.value()];
    s = Span{};
    s.ue = ue;
    s.type = type;
    s.first_seq = s.last_seq = seq;
    s.start = now;
    s.accounted_until = now;
  }

  /// Recovery continued this procedure under a new proc_seq (Re-Attach);
  /// the span keeps covering it.
  void annex(UeId ue, std::uint64_t new_seq) {
    if (Span* s = find(ue)) {
      s->last_seq = std::max(s->last_seq, new_seq);
      s->reattached = true;
      s->under_failure = true;
    }
  }

  void mark_under_failure(UeId ue) {
    if (Span* s = find(ue)) s->under_failure = true;
  }

  void mark_violation(UeId ue) {
    if (Span* s = find(ue)) s->ryw_violation = true;
  }

  void end(UeId ue, std::uint64_t seq, SimTime now) {
    const auto it = active_.find(ue.value());
    if (it == active_.end()) return;
    Span s = std::move(it->second);
    active_.erase(it);
    if (seq < s.first_seq || seq > s.last_seq) return;  // stale completion
    s.end = now;
    s.completed = true;
    // Settle the decomposition: charges are disjoint and start-ordered by
    // construction; clamp each to [start, end] (a hop scheduled just
    // before completion can reach past it) and charge the unattributed
    // remainder to kOther — components now tile [start, end] exactly.
    for (const Span::Charge& c : s.charges) {
      const SimTime to = std::min(c.to, s.end);
      if (to > c.from) {
        s.decomp_ns[static_cast<std::size_t>(c.cls)] += (to - c.from).ns();
      }
    }
    s.charges.clear();
    s.charges.shrink_to_fit();
    const std::int64_t gap = s.duration().ns() - s.attributed_ns();
    if (gap > 0) {
      s.decomp_ns[static_cast<std::size_t>(HopClass::kOther)] += gap;
    }
    fold(s);
    retain(std::move(s));
  }

  // ---- hop recording (called by System / Cta / Cpf / Upf) ----

  void hop(const core::Msg& msg, HopClass cls, const char* node,
           std::uint32_t node_id, SimTime t0, SimTime t1) {
    Span* s = find(msg.ue);
    if (!s) return;
    if (msg.proc_seq < s->first_seq || msg.proc_seq > s->last_seq) return;
    // Replication chatter (checkpoint broadcast, its ACKs, outdated
    // notifies) races the response off the critical path; it shows up in
    // the event timeline but must not claim decomposition time. State
    // fetches stay accounted: a FastHandover's slow path waits on them.
    const bool off_path = msg.kind == core::MsgKind::kStateCheckpoint ||
                          msg.kind == core::MsgKind::kCheckpointAck ||
                          msg.kind == core::MsgKind::kOutdatedNotify;
    if (!off_path && t1 > t0) {
      // Clamp to the unaccounted window so overlapping hops (replays,
      // off-path work racing the reply) never double count.
      const SimTime lo = std::max(t0, s->accounted_until);
      if (t1 > lo) {
        s->charges.push_back({lo, t1, cls});
        s->accounted_until = t1;
      }
    }
    if (cfg_.record_events) {
      s->events.push_back({t0, t1, cls, node, node_id, msg.kind});
    }
  }

  // ---- retrieval ----

  [[nodiscard]] std::size_t active_spans() const { return active_.size(); }
  [[nodiscard]] std::uint64_t spans_completed() const { return completed_n_; }

  /// Every completed span, in completion order (keep_all only).
  [[nodiscard]] const std::vector<Span>& all() const { return all_; }
  /// Completed spans that hit a failure path or violated RYW.
  [[nodiscard]] const std::vector<Span>& failed() const { return failed_; }
  /// The retained slowest spans, slowest first.
  [[nodiscard]] std::vector<Span> slowest() const {
    std::vector<Span> out = slowest_;
    std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
      return a.duration() > b.duration();
    });
    return out;
  }

  /// The folded decomposition of one procedure type (empty recorders
  /// unless TracerConfig::decompose and a span of that type completed).
  [[nodiscard]] const Decomposition& decomposition(
      core::ProcedureType type) const {
    return decomposition_[static_cast<std::size_t>(type)];
  }

  /// JSON document with the N slowest and all retained failed spans.
  [[nodiscard]] Json dump_json(std::size_t max_slowest = 8) const {
    Json j;
    j["schema"] = "neutrino.trace-dump";
    j["version"] = 1;
    j["spans_completed"] = completed_n_;
    j["spans_in_flight"] = active_.size();
    Json& slow = j["slowest"];
    slow.make_array();
    const auto sorted = slowest();
    for (std::size_t i = 0; i < sorted.size() && i < max_slowest; ++i) {
      slow.push_back(sorted[i].to_json());
    }
    Json& fail = j["failed"];
    fail.make_array();
    for (const Span& s : failed_) fail.push_back(s.to_json());
    return j;
  }

 private:
  Span* find(UeId ue) {
    const auto it = active_.find(ue.value());
    return it == active_.end() ? nullptr : &it->second;
  }

  void fold(const Span& s) {
    if (!cfg_.decompose) return;
    Decomposition& d = decomposition_[static_cast<std::size_t>(s.type)];
    for (std::size_t c = 0; c < kHopClasses; ++c) {
      d.component[c].add(static_cast<double>(s.decomp_ns[c]) / 1e6);
    }
    d.total.add(static_cast<double>(s.duration().ns()) / 1e6);
  }

  void retain(Span&& s) {
    ++completed_n_;
    if ((s.under_failure || s.ryw_violation) &&
        failed_.size() < cfg_.keep_failed) {
      failed_.push_back(s);
    }
    if (cfg_.keep_slowest > 0) {
      const auto faster = [](const Span& a, const Span& b) {
        return a.duration() > b.duration();  // min-heap on duration
      };
      if (slowest_.size() < cfg_.keep_slowest) {
        slowest_.push_back(s);
        std::push_heap(slowest_.begin(), slowest_.end(), faster);
      } else if (s.duration() > slowest_.front().duration()) {
        std::pop_heap(slowest_.begin(), slowest_.end(), faster);
        slowest_.back() = s;
        std::push_heap(slowest_.begin(), slowest_.end(), faster);
      }
    }
    if (cfg_.keep_all) all_.push_back(std::move(s));
  }

  TracerConfig cfg_;
  std::array<Decomposition, core::kProcTypes> decomposition_;
  std::unordered_map<std::uint64_t, Span> active_;
  std::vector<Span> slowest_;  // min-heap by duration
  std::vector<Span> failed_;
  std::vector<Span> all_;
  std::uint64_t completed_n_ = 0;
};

}  // namespace neutrino::obs
