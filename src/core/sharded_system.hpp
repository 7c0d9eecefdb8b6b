// N core::System instances — one per shard — glued to the conservative
// sharded runtime (sim/parallel/runtime.hpp).
//
// Partitioning: level-1 regions are block-partitioned across shards
// (System::shard_of_region); a UE belongs to the shard owning its home
// region (ue % total_regions, matching Frontend's fresh-UE homing and the
// bench preattach round-robin). Every shard constructs the full topology
// but executes only its own regions' node logic; the rest are liveness
// shadows kept consistent by mirroring failure injections on all shards
// at the same simulated time (schedule_crash/schedule_restore). Each
// shard's System holds the placement rings once; churn is mirrored the
// same way (schedule_drain/schedule_scale_out), so all shards place alike.
//
// The lookahead window is derived from the topology: the minimum
// cpf_link() latency over region pairs owned by different shards, minus
// 1ns so cross-shard arrivals land strictly after the window end (the
// runtime checks this in every build). Block partitioning is what keeps
// this large: contiguous regions share a shard, so the 5µs intra-region
// links never cross, and the window is bounded by the ≥400µs inter-region
// links.
//
// Windows are static: every shard runs to the same window end. Wider
// per-shard horizons would reorder same-nanosecond ties, so a chaos
// schedule would no longer have the same outcome at every shard count
// (DESIGN.md §16).
//
// Determinism: fixed shard count ⇒ bit-identical counters, PCT
// distributions and traces across runs and worker-thread counts; one
// shard ⇒ no sink, one window to the horizon — exactly a single System on
// one loop (tests/parallel_determinism_test.cpp proves both
// differentially). This class is the only way benches and chaos runs
// drive the simulator; shards=1 is their single-loop reference.
//
// Unsupported under >1 shard (UE↔CTA links sit below any cross-shard
// lookahead, so UEs cannot re-home across a shard boundary): inter-shard
// kHandover targets and CTA crashes whose reroute would cross shards.
// System::ue_to_cta and cta_to_ue abort the run on either, in every
// build; see DESIGN.md §11.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/metrics.hpp"
#include "core/policy.hpp"
#include "core/shard_link.hpp"
#include "core/system.hpp"
#include "core/topology.hpp"
#include "obs/profiler.hpp"
#include "sim/parallel/runtime.hpp"

namespace neutrino::core {

class ShardedSystem {
 public:
  using Runtime = sim::parallel::ShardedRuntime<ShardEnvelope>;

  struct Config {
    CorePolicy policy;
    TopologyConfig topo;
    ProtocolConfig proto;
    std::uint32_t shards = 1;
    std::uint32_t threads = 1;
    bool streaming_pct = false;
  };

  ShardedSystem(const Config& config, const CostModel& costs);

  [[nodiscard]] std::uint32_t shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] std::uint32_t shard_of_region(std::uint32_t region) const {
    return shards_[0].system->shard_of_region(region);
  }
  [[nodiscard]] std::uint32_t shard_of_ue(UeId ue) const {
    return shard_of_region(home_region(ue));
  }
  [[nodiscard]] std::uint32_t home_region(UeId ue) const {
    return static_cast<std::uint32_t>(
        ue.value() % static_cast<std::uint64_t>(topo_.total_regions()));
  }
  [[nodiscard]] System& system(std::uint32_t shard) {
    return *shards_[shard].system;
  }
  [[nodiscard]] Metrics& metrics(std::uint32_t shard) {
    return *shards_[shard].metrics;
  }
  [[nodiscard]] Runtime& runtime() { return runtime_; }

  /// Sharded preattach: UE context on the home shard, replica state on
  /// each replica's owning shard (same placement as Frontend::preattach).
  void preattach(UeId ue, std::uint32_t region);

  /// Partition a trace across shards by UE home region: each shard
  /// replays its records, in trace order, as one event stream
  /// (System::replay), so its queue holds one arrival at a time.
  /// Templated on the record type (traffic::TraceRecord-shaped) to keep
  /// core below traffic in the layering.
  template <class Record>
  void replay(const std::vector<Record>& trace) {
    std::vector<std::vector<System::Arrival>> streams(shards_.size());
    std::vector<std::size_t> counts(shards_.size(), 0);
    for (const Record& rec : trace) ++counts[shard_of_ue(rec.ue)];
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      streams[s].reserve(counts[s]);
    }
    for (const Record& rec : trace) {
      streams[shard_of_ue(rec.ue)].push_back(System::Arrival::of(rec));
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s].system->replay(std::move(streams[s]));
    }
  }

  /// Failure injections, mirrored on every shard at the same simulated
  /// time so shadow liveness/epoch state never diverges from the owner's.
  void schedule_crash(SimTime at, CpfId id);
  void schedule_restore(SimTime at, CpfId id);
  /// CTA crash, mirrored like the CPF injections (each shard's Frontend
  /// only holds its own UEs, so the shadow crashes just flip liveness).
  /// Callers must keep the reroute region — (region+1) % regions — on the
  /// same shard; System::ue_to_cta aborts if a reroute crosses shards.
  void schedule_cta_crash(SimTime at, std::uint32_t region);
  /// Elastic churn (DESIGN.md §19), mirrored like the failure injections:
  /// every shard changes its System's rings at the same simulated time, so
  /// placement answers agree on every shard (handoffs only run on the
  /// owner).
  void schedule_scale_out(SimTime at, CpfId id);
  void schedule_drain(SimTime at, CpfId id);

  /// Per-shard tracer for differential tests (must outlive the run).
  void attach_tracer(std::uint32_t shard, obs::ProcTracer& tracer) {
    shards_[shard].system->attach_tracer(tracer);
  }

  /// Per-shard flight recorder (must outlive the run). Each shard records
  /// only events for regions it owns, so FlightRecorder::merge_flight()
  /// over the
  /// recorders yields one duplicate-free, deterministic timeline.
  void attach_flight_recorder(std::uint32_t shard, obs::FlightRecorder& f) {
    shards_[shard].system->attach_flight_recorder(f);
  }

  /// Arm windowed telemetry on every shard (DESIGN.md §15). Each shard
  /// samples its own loop at the same sim-time cadence, so the merged
  /// series are independent of lane assignment and thread count.
  void arm_telemetry(SimTime window, SimTime until) {
    for (Shard& shard : shards_) shard.system->arm_telemetry(window, until);
  }

  /// Arm per-procedure SLO burn tracking on every shard's Metrics; the
  /// trackers fold together in merged_metrics().
  void arm_slo(SimTime window,
               const std::vector<std::pair<ProcedureType, obs::SloTarget>>&
                   targets) {
    for (Shard& shard : shards_) shard.metrics->arm_slo(window, targets);
  }

  /// Wall-clock phase profiler for the runtime's lanes
  /// (never mixed into deterministic outputs; see obs/profiler.hpp).
  void set_profiler(obs::PhaseProfiler* profiler) {
    runtime_.set_profiler(profiler);
  }

  /// Record per-window shard activity for Perfetto export (bounded).
  void enable_window_log(std::size_t max_windows = 2048) {
    runtime_.enable_window_log(max_windows);
  }
  [[nodiscard]] const std::vector<sim::parallel::WindowRecord>& window_log()
      const {
    return runtime_.window_log();
  }

  /// Drive all shards to the horizon (spawns min(threads, shards) − 1
  /// workers; the calling thread participates).
  void run_until(SimTime horizon);

  /// Fold every shard's metrics into one aggregate (merge-on-join).
  [[nodiscard]] Metrics merged_metrics() const;

  /// Table census summed over every shard's owned nodes.
  [[nodiscard]] TableBytes table_bytes() const {
    TableBytes out;
    for (const Shard& shard : shards_) out += shard.system->table_bytes();
    return out;
  }

  [[nodiscard]] std::uint64_t events_executed() const {
    return runtime_.events_executed();
  }
  [[nodiscard]] const Runtime::Stats& stats() const {
    return runtime_.stats();
  }
  [[nodiscard]] std::vector<std::uint64_t> shard_events() {
    std::vector<std::uint64_t> out;
    out.reserve(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      out.push_back(runtime_.loop(i).executed());
    }
    return out;
  }

 private:
  struct Sink final : CrossShardSink {
    Runtime* runtime = nullptr;
    std::uint32_t src = 0;
    void post(std::uint32_t dest_shard, SimTime arrival,
              ShardEnvelope&& envelope) override {
      runtime->post(src, dest_shard, arrival, std::move(envelope));
    }
  };
  struct Shard {
    std::unique_ptr<Metrics> metrics;  // stable address for System's ref
    std::unique_ptr<System> system;
  };

  [[nodiscard]] static Runtime::Config runtime_config(const Config& config);

  TopologyConfig topo_;
  Runtime runtime_;
  std::vector<Sink> sinks_;  // sized once in the ctor; addresses stable
  std::vector<Shard> shards_;
};

}  // namespace neutrino::core
