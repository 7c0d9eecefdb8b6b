// JSON fragments shared by the structured exporter: recorder summaries,
// the counter dump, the windowed series, and the versioned bench-report
// envelope (schema documented in DESIGN.md §9). Time-indexed data reaches
// a report only as windowed series (the "timeseries" section). Version 1's
// optional "gauges" and "time_series" row sections are no longer written;
// no reader required them, so dropping them keeps version 7.
#pragma once

#include <string_view>

#include "common/stats.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"

namespace neutrino::obs {

inline constexpr std::string_view kBenchReportSchema = "neutrino.bench-report";
// Version history:
//   1 — initial envelope: figure/title/config + rows with counters,
//       gauges, decomposition and time series.
//   2 — every row carries "mode" ("single-thread" | "sharded"); sharded
//       rows add shards/threads/windows/cross_shard_messages/shard_events
//       (the sharded-runtime scaling figures, DESIGN.md §11).
//   3 — telemetry sections (DESIGN.md §15): rows may add "timeseries"
//       (fixed-interval windowed series), "slo" (per-procedure targets +
//       windowed burn rates) and "profiler" (wall-clock phase shares —
//       nondeterministic by design, never compared byte-for-byte).
//   4 — traffic scenarios (DESIGN.md §17): benches run with --scenario=
//       echo a config "scenario" object (name + generation parameters);
//       scenario-driven rows carry "scenario", an "arrivals" section
//       (total + per-class counts summing to it) and an "arrival_series"
//       (windowed offered-arrival counts summing to the total).
//   5 — mobility (DESIGN.md §18): fig_mobility echoes a config "mobility"
//       object (grid geometry, ping-pong accounting, and per-class
//       crossing-rate validation against the corrected (4/pi)v/L closed
//       form with its tolerance); its rows carry "handover_pct_ms"
//       summaries, and edge-pingpong rows add pingpong_pairs /
//       suppressed_excursions.
//   6 — elasticity (DESIGN.md §19): fig_elastic echoes a config "elastic"
//       object (drain grace, the envelope-derived autoscale plan, the
//       rolling-upgrade cadence and the lost region); its rows carry
//       ring_epoch / migrated_ues / completion_rate and a "handoff_ms"
//       percentile summary, with zero RYW violations and cross-thread
//       bit-identity as hard gates.
//   7 — cost table: benches whose simulator reads the measured cost
//       model echo it as a config "cost_model" object (scale, base_ns
//       and per format and message kind the service_ns and bytes), so a
//       report records the per-message costs it simulated.
inline constexpr int kBenchReportVersion = 7;

/// count/mean/p50/p90/p99/p999/max of a recorder, as a JSON object.
inline Json summary_json(const LatencyRecorder& r) {
  const LatencyRecorder::Summary s = r.summary();
  Json j;
  j["count"] = s.count;
  j["mean"] = s.mean;
  j["p50"] = s.p50;
  j["p90"] = s.p90;
  j["p99"] = s.p99;
  j["p999"] = s.p999;
  j["max"] = s.max;
  return j;
}

/// All counters as a flat {key: value} object.
inline Json counters_json(const Registry& reg) {
  Json j;
  j.make_object();
  reg.for_each_counter([&j](const std::string& key, const Counter& c) {
    j[key] = c.value();
  });
  return j;
}

/// Windowed telemetry (schema v3 "timeseries" section):
/// {window_ms, series: {key: {agg, n, max, points: [[t_ms, v], ...]}}}
/// where t_ms is the window's *start*. Every series ticks every window
/// (zeros included), so all series in one run share the same length; the
/// downsampling stride is computed once from that common length, keeping
/// exported lengths equal too (validate_report.py checks this).
inline Json windowed_series_json(const Registry& reg,
                                 std::size_t max_points = 256) {
  Json j;
  double window_ms = 0.0;
  std::size_t longest = 0;
  reg.for_each_windowed([&](const std::string&, const WindowedSeries& ws) {
    if (ws.configured()) window_ms = ws.window().ms();
    longest = ws.buckets().size() > longest ? ws.buckets().size() : longest;
  });
  j["window_ms"] = window_ms;
  const std::size_t stride =
      longest > max_points ? (longest + max_points - 1) / max_points : 1;
  Json& series = j["series"];
  series.make_object();
  reg.for_each_windowed([&](const std::string& key, const WindowedSeries& ws) {
    if (ws.empty()) return;
    Json& entry = series[key];
    entry["agg"] = window_agg_name(ws.agg());
    entry["n"] = ws.buckets().size();
    entry["max"] = ws.max();
    Json& pts = entry["points"];
    pts.make_array();
    for (std::size_t i = 0; i < ws.buckets().size(); i += stride) {
      const WindowedSeries::Bucket& b = ws.buckets()[i];
      Json pair;
      pair.push_back(ws.bucket_start(b).ms());
      pair.push_back(b.value);
      pts.push_back(std::move(pair));
    }
  });
  return j;
}

}  // namespace neutrino::obs
