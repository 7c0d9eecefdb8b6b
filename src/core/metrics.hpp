// Experiment metrics: PCT distributions and protocol counters.
//
// Counters live in an obs::Registry (named "core.<counter>") so the
// structured exporter and ad-hoc tooling can enumerate them; the named
// reference members below keep every existing `++metrics.replays`-style
// call site source-compatible. The registry also receives the labeled
// extras the flat struct could never hold: per-procedure-type completion
// counts, per-CPF crash/recovery counters, and the windowed telemetry
// series System::sample_telemetry() records (DESIGN.md §15). The PCT
// decomposition is the attached obs::ProcTracer's own table.
// The Fig. 17 log peak is an exact watermark (cta_log_peak_bytes), not an
// instrument.
//
// Metrics is movable (run_experiment moves it into ExperimentResult):
// the references stay valid because registry instruments are std::map
// nodes, whose addresses survive the map move.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "core/msg.hpp"
#include "obs/registry.hpp"
#include "obs/slo.hpp"

namespace neutrino::core {

struct Metrics {
  // Movable, not copyable: a copy's reference members would alias the
  // source's registry nodes. A move transfers the map nodes, so the
  // references keep pointing at this object's own instruments.
  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;
  Metrics(Metrics&&) = default;
  Metrics& operator=(Metrics&&) = delete;

  /// Names every instrument below lives under; benches may add their own.
  obs::Registry registry;

  /// Procedure completion time in milliseconds, by procedure type.
  std::array<LatencyRecorder, kProcTypes> pct;
  /// Subset: procedures that hit a failure/recovery path (Fig. 10).
  std::array<LatencyRecorder, kProcTypes> pct_under_failure;
  /// Elastic churn (DESIGN.md §19): per-UE handoff latency in ms, from
  /// the drain/scale-out re-ring to the handoff checkpoint leaving the
  /// old owner (serialize + sync-pool queueing — the knob fig_elastic's
  /// handoff_ms percentiles report).
  LatencyRecorder handoff_pct;

  LatencyRecorder& pct_for(ProcedureType t) {
    return pct[static_cast<std::size_t>(t)];
  }
  LatencyRecorder& pct_failure_for(ProcedureType t) {
    return pct_under_failure[static_cast<std::size_t>(t)];
  }

  /// Constant-memory PCT accounting for storm-scale benches: per-procedure
  /// latencies feed streaming mean/max accumulators instead of retained
  /// sample vectors (call before the experiment starts).
  void use_streaming_pct() {
    for (auto& r : pct) r.use_streaming_only();
    for (auto& r : pct_under_failure) r.use_streaming_only();
  }

  /// Arm per-procedure SLO tracking (DESIGN.md §15): the frontend scores
  /// every completed procedure against `targets` in sim-time windows of
  /// `window`. Off (null) by default — completion costs one pointer test.
  void arm_slo(SimTime window,
               const std::vector<std::pair<core::ProcedureType,
                                           obs::SloTarget>>& targets) {
    slo_tracker = std::make_unique<obs::SloTracker>(window);
    for (const auto& [type, target] : targets) {
      slo_tracker->set_target(static_cast<std::size_t>(type),
                              std::string{to_string(type)}, target);
    }
  }
  [[nodiscard]] obs::SloTracker* slo() { return slo_tracker.get(); }
  [[nodiscard]] const obs::SloTracker* slo() const {
    return slo_tracker.get();
  }

  /// Merge-on-join for sharded runs: fold one shard's metrics into this
  /// (fresh) aggregate. Counters and windowed series go via
  /// Registry::merge; the named reference members pick the sums up
  /// automatically because they alias this registry's map nodes.
  void merge_from(const Metrics& other) {
    registry.merge(other.registry);
    for (std::size_t i = 0; i < kProcTypes; ++i) {
      pct[i].merge(other.pct[i]);
      pct_under_failure[i].merge(other.pct_under_failure[i]);
    }
    handoff_pct.merge(other.handoff_pct);
    if (other.slo_tracker) {
      if (!slo_tracker) {
        slo_tracker =
            std::make_unique<obs::SloTracker>(other.slo_tracker->window());
      }
      slo_tracker->merge(*other.slo_tracker);
    }
    cta_log_peak_bytes =
        cta_log_peak_bytes > other.cta_log_peak_bytes
            ? cta_log_peak_bytes
            : other.cta_log_peak_bytes;
  }

  // Protocol counters (registry-backed; see file comment).
  obs::Counter& procedures_started = registry.counter("core.procedures_started");
  obs::Counter& procedures_completed =
      registry.counter("core.procedures_completed");
  /// Failure scenario 3/4 recoveries.
  obs::Counter& reattaches = registry.counter("core.reattaches");
  /// Scenario 2: messages replayed.
  obs::Counter& replays = registry.counter("core.replays");
  /// Scenario 1: clean backup takeover.
  obs::Counter& failovers = registry.counter("core.failovers");
  obs::Counter& checkpoints_sent = registry.counter("core.checkpoints_sent");
  obs::Counter& checkpoint_acks = registry.counter("core.checkpoint_acks");
  /// §4.2.4 markings.
  obs::Counter& outdated_notifies = registry.counter("core.outdated_notifies");
  obs::Counter& state_fetches = registry.counter("core.state_fetches");
  /// Proactive hit: no migration needed.
  obs::Counter& fast_handovers = registry.counter("core.fast_handovers");
  /// State shipped at handover time.
  obs::Counter& migrations = registry.counter("core.migrations");
  obs::Counter& log_appends = registry.counter("core.log_appends");
  obs::Counter& log_prunes = registry.counter("core.log_prunes");
  // Downlink reachability (the §3.1 / Fig. 2 motivating scenario).
  obs::Counter& pagings_sent = registry.counter("core.pagings_sent");
  obs::Counter& downlink_delivered =
      registry.counter("core.downlink_delivered");
  obs::Counter& downlink_undeliverable =
      registry.counter("core.downlink_undeliverable");

  /// CTA in-memory log accounting (Fig. 17).
  std::size_t cta_log_peak_bytes = 0;

  /// Per-procedure SLO burn tracking; null unless arm_slo() ran.
  std::unique_ptr<obs::SloTracker> slo_tracker;

  // Overload control (DESIGN.md §13). All zero unless the ProtocolConfig
  // bounds a queue or enables NAS retransmission.
  /// New attaches shed at a bounded CTA/CPF queue's attach threshold.
  obs::Counter& attach_sheds = registry.counter("core.attach_sheds");
  /// Non-attach jobs rejected at a bounded queue (retransmission re-drives
  /// them).
  obs::Counter& overload_drops = registry.counter("core.overload_drops");
  /// Uplinks re-sent by the frontend's NAS retransmission timer.
  obs::Counter& nas_retransmissions =
      registry.counter("core.nas_retransmissions");
  /// Retry budgets exhausted: the UE gave up and re-attached.
  obs::Counter& retx_exhausted = registry.counter("core.retx_exhausted");

  /// Messages handed to the cross-shard sink (sharded runs; zero in
  /// single-shard mode). Feeds the "ts.cross_posts" windowed series.
  obs::Counter& cross_shard_posts =
      registry.counter("core.cross_shard_posts");

  // Elastic churn (DESIGN.md §19).
  /// CPFs added to the rings at runtime.
  obs::Counter& scale_outs = registry.counter("core.scale_outs");
  /// CPFs drained out of the rings at runtime.
  obs::Counter& drains = registry.counter("core.drains");
  /// UE contexts shipped to their new ring owner during churn.
  obs::Counter& handoff_ues = registry.counter("core.handoff_ues");

  /// Read-your-Writes violations observed by the frontend. The consistency
  /// protocol's correctness claim is exactly: this stays zero.
  obs::Counter& ryw_violations = registry.counter("core.ryw_violations");
  /// Responses served from provably stale state (subset of the above,
  /// counted at the CPF).
  obs::Counter& stale_serves = registry.counter("core.stale_serves");
};

}  // namespace neutrino::core
