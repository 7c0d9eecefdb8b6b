// Chrome/Perfetto trace-event JSON export (`--trace-out=`).
//
// Renders the telemetry the aggregates can't show spatially:
//   * procedure hop timelines — each retained span (slowest + failed)
//     becomes its own track under the "procedures" process, every hop an
//     "X" complete event, so PCT decomposition is visually inspectable
//     hop by hop;
//   * shard windows — each shard a track under the "sharded runtime"
//     process, one slice per conservative window plus a per-window
//     "events" counter, so barrier-bounded sync stalls are visible as
//     gaps between slices.
//
// Timestamps are *sim-time* microseconds (the trace-event format's native
// unit). Load the file at https://ui.perfetto.dev or chrome://tracing.
// Format reference: the Chromium "Trace Event Format" doc; only "M"
// (metadata), "X" (complete) and "C" (counter) events are emitted.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "sim/parallel/runtime.hpp"

namespace neutrino::obs {

namespace detail {

inline constexpr int kProcPid = 1;
inline constexpr int kShardPid = 2;

inline double us(SimTime t) { return static_cast<double>(t.ns()) / 1e3; }

inline Json meta_event(int pid, int tid, const char* what, std::string name) {
  Json j;
  j["name"] = what;
  j["ph"] = "M";
  j["pid"] = pid;
  j["tid"] = tid;
  j["args"]["name"] = std::move(name);
  return j;
}

inline Json complete_event(int pid, int tid, std::string name,
                           std::string_view cat, SimTime start, SimTime end) {
  Json j;
  j["name"] = std::move(name);
  j["cat"] = cat;
  j["ph"] = "X";
  j["ts"] = us(start);
  j["dur"] = us(end < start ? SimTime{} : end - start);
  j["pid"] = pid;
  j["tid"] = tid;
  return j;
}

}  // namespace detail

/// Build a trace-event document from a tracer's retained spans (slowest
/// first, then retained failed spans not already included) and, when a
/// sharded run logged them, per-shard window tracks. Either input may be
/// empty; the result is always a well-formed trace.
inline Json perfetto_trace(
    const ProcTracer* tracer,
    const std::vector<sim::parallel::WindowRecord>& windows = {},
    std::size_t max_spans = 64) {
  Json doc;
  doc["displayTimeUnit"] = "ms";
  Json& events = doc["traceEvents"];
  events.make_array();

  // --- procedure tracks ---
  std::vector<Span> spans;
  if (tracer != nullptr) {
    spans = tracer->slowest();
    for (const Span& f : tracer->failed()) {
      bool seen = false;
      for (const Span& s : spans) {
        if (s.ue == f.ue && s.first_seq == f.first_seq) {
          seen = true;
          break;
        }
      }
      if (!seen) spans.push_back(f);
    }
    if (spans.size() > max_spans) spans.resize(max_spans);
  }
  if (!spans.empty()) {
    events.push_back(detail::meta_event(detail::kProcPid, 0, "process_name",
                                        "procedures"));
  }
  int tid = 0;
  for (const Span& s : spans) {
    ++tid;
    char label[96];
    std::snprintf(label, sizeof label, "%s ue=%llu (%.2f ms)%s",
                  std::string{core::to_string(s.type)}.c_str(),
                  static_cast<unsigned long long>(s.ue.value()),
                  s.duration_ms(), s.under_failure ? " [failure]" : "");
    events.push_back(detail::meta_event(detail::kProcPid, tid, "thread_name",
                                        label));
    Json span_ev = detail::complete_event(
        detail::kProcPid, tid, std::string{core::to_string(s.type)},
        "procedure", s.start, s.end);
    span_ev["args"]["ue"] = s.ue.value();
    span_ev["args"]["pct_ms"] = s.duration_ms();
    span_ev["args"]["under_failure"] = s.under_failure;
    events.push_back(std::move(span_ev));
    for (const HopEvent& h : s.events) {
      // Clamp to the span so hops scheduled past completion still nest.
      const SimTime h_end = h.end < s.end ? h.end : s.end;
      std::string name = std::string{core::to_string(h.msg)} + "@" + h.node +
                         std::to_string(h.node_id);
      Json hop_ev = detail::complete_event(detail::kProcPid, tid,
                                           std::move(name), to_string(h.cls),
                                           h.start, h_end);
      hop_ev["args"]["class"] = to_string(h.cls);
      events.push_back(std::move(hop_ev));
    }
  }

  // --- shard window tracks ---
  if (!windows.empty()) {
    events.push_back(detail::meta_event(detail::kShardPid, 0, "process_name",
                                        "sharded runtime"));
    const std::size_t shards = windows.front().executed.size();
    for (std::size_t sh = 0; sh < shards; ++sh) {
      events.push_back(detail::meta_event(detail::kShardPid,
                                          static_cast<int>(sh) + 1,
                                          "thread_name",
                                          "shard " + std::to_string(sh)));
    }
    std::uint64_t n = 0;
    for (const sim::parallel::WindowRecord& w : windows) {
      ++n;
      for (std::size_t sh = 0; sh < shards && sh < w.executed.size(); ++sh) {
        if (w.executed[sh] == 0) continue;  // shard idle this window
        Json ev = detail::complete_event(detail::kShardPid,
                                         static_cast<int>(sh) + 1,
                                         "window " + std::to_string(n),
                                         "window", w.start, w.end);
        ev["args"]["events"] = w.executed[sh];
        events.push_back(std::move(ev));
        Json ctr;
        ctr["name"] = "events/window";
        ctr["ph"] = "C";
        ctr["ts"] = detail::us(w.start);
        ctr["pid"] = detail::kShardPid;
        ctr["tid"] = static_cast<int>(sh) + 1;
        ctr["args"]["events"] = w.executed[sh];
        events.push_back(std::move(ctr));
      }
      if (w.cross_messages > 0) {
        Json ctr;
        ctr["name"] = "cross-shard messages";
        ctr["ph"] = "C";
        ctr["ts"] = detail::us(w.end);
        ctr["pid"] = detail::kShardPid;
        ctr["tid"] = 0;
        ctr["args"]["messages"] = w.cross_messages;
        events.push_back(std::move(ctr));
      }
    }
  }
  return doc;
}

}  // namespace neutrino::obs
