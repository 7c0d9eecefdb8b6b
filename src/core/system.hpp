// The simulated cellular core: CTAs, CPFs, UPFs and the UE/BS frontend,
// wired per the Fig. 6 deployment model and driven by one policy vector
// (core/policy.hpp) so Neutrino and every baseline share this code.
#pragma once

#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/flat_hash_map.hpp"
#include "common/hashing.hpp"
#include "core/cost_model.hpp"
#include "core/invariants.hpp"
#include "core/metrics.hpp"
#include "core/msg.hpp"
#include "core/policy.hpp"
#include "core/shard_link.hpp"
#include "core/topology.hpp"
#include "core/ue_state.hpp"
#include "geo/hash_ring.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"
#include "sim/server_pool.hpp"

namespace neutrino::core {

class System;

/// Admission class of an uplink offered to a bounded service pool
/// (DESIGN.md §13). Only a brand-new attach — not a recovery re-attach,
/// not a replay, not a mid-attach message — is sheddable; everything
/// carrying an in-flight procedure keeps the full queue, with handover
/// and service-request called out per §3's outage sensitivity.
inline sim::JobClass job_class_of(const Msg& msg) {
  if (msg.kind == MsgKind::kAttachRequest &&
      msg.proc_type == ProcedureType::kAttach && !msg.is_replay) {
    return sim::JobClass::kAttach;
  }
  switch (msg.proc_type) {
    case ProcedureType::kHandover:
    case ProcedureType::kIntraHandover:
      return sim::JobClass::kHandover;
    case ProcedureType::kServiceRequest:
      return sim::JobClass::kService;
    default:
      return sim::JobClass::kControl;
  }
}

/// Bytes of the hash tables each kind of node keeps, summed over the nodes
/// one System (one shard) owns: a per-owner census of capacity × slot
/// size (FlatHashMap::memory_bytes), deterministic for a given run.
struct TableBytes {
  std::size_t frontend = 0;
  std::size_t cta = 0;
  std::size_t cpf = 0;
  std::size_t upf = 0;

  TableBytes& operator+=(const TableBytes& o) {
    frontend += o.frontend;
    cta += o.cta;
    cpf += o.cpf;
    upf += o.upf;
    return *this;
  }
};

// ---------------------------------------------------------------------------
// UPF: data-plane session endpoint (S11 server), one per region.
// ---------------------------------------------------------------------------
class Upf {
 public:
  Upf(System& system, UpfId id, std::uint32_t region);

  void deliver(Msg msg);  // network-level delivery (latency already applied)

  /// Downlink data arrived for an (idle) UE: raise a Downlink Data
  /// Notification toward the control plane (the Fig. 2 scenario).
  void notify_downlink(UeId ue);
  /// Bench/test hook: install a session for a pre-attached UE.
  void preinstall(UeId ue);

  [[nodiscard]] UpfId id() const { return id_; }
  [[nodiscard]] std::size_t table_bytes() const {
    return sessions_.memory_bytes();
  }
  [[nodiscard]] bool has_session(UeId ue) const {
    return sessions_.contains(ue);
  }

 private:
  void handle(Msg msg);

  System* system_;
  UpfId id_;
  std::uint32_t region_;
  sim::ServerPool pool_;
  FlatHashMap<UeId, Teid> sessions_;
  std::uint32_t next_teid_ = 0x1000;
};

// ---------------------------------------------------------------------------
// CPF: the control-plane function (AMF/SMF analog).
// ---------------------------------------------------------------------------
class Cpf {
 public:
  Cpf(System& system, CpfId id, std::uint32_t region);

  void deliver(Msg msg);

  void crash();
  void restore();
  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] CpfId id() const { return id_; }
  [[nodiscard]] std::uint32_t region() const { return region_; }
  /// Crash incarnation (see Msg::sender_epoch).
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }

  /// Test/bench hook: install a UE's state directly (pre-attached UE
  /// population).
  void preinstall(UeId ue, StateRef state);

  /// Elastic churn (DESIGN.md §19): UEs whose up-to-date state this CPF
  /// holds for its own region — the candidate set a scale-out/drain hands
  /// off (the caller filters by ring ownership).
  void collect_served(std::vector<UeId>& out) const;
  /// Ship one UE's state to its new ring owner: a targeted checkpoint on
  /// the sync core, riding the ordinary kStateCheckpoint/ACK machinery.
  void handoff(UeId ue, CpfId to);

  [[nodiscard]] bool has_up_to_date(UeId ue) const;
  [[nodiscard]] const UeState* peek_state(UeId ue) const;
  /// Bytes of the state store, procedure and parked-handover tables.
  [[nodiscard]] std::size_t table_bytes() const {
    return store_.memory_bytes() + procs_.memory_bytes() +
           pending_handover_.memory_bytes();
  }
  /// Jobs queued or in service on the request / sync core.
  [[nodiscard]] std::size_t request_depth() const {
    return request_pool_.queue_depth();
  }
  [[nodiscard]] std::size_t sync_depth() const {
    return sync_pool_.queue_depth();
  }
  /// Exact high-watermark of the request queue (overload reporting).
  [[nodiscard]] std::size_t request_peak_depth() const {
    return request_pool_.peak_depth();
  }
  /// Cumulative request-pool service demand (saturation-knee calibration).
  [[nodiscard]] SimTime request_busy_time() const {
    return request_pool_.busy_time();
  }
  /// Per-class admission rejections (windowed shed telemetry).
  [[nodiscard]] std::uint64_t request_drops(sim::JobClass cls) const {
    return request_pool_.drops(cls);
  }
  [[nodiscard]] int request_cores() const { return request_pool_.cores(); }

 private:
  /// One replica's copy of a UE: 16 bytes, 1 + N per attached UE, all
  /// sharing one snapshot. The marker shares a word with its clock;
  /// `Entry{state, true}` fills the fields in this order.
  struct Entry {
    StateRef state;
    LogicalClock::Value up_to_date : 1 = 1;
    /// §4.2.4(1a-ii): once marked outdated, only a state update carrying at
    /// least this logical clock makes the replica current again. 63 bits:
    /// a CTA clock ticks once per logged message and never gets near 2^63.
    LogicalClock::Value required_lclock : 63 = 0;
  };
  static_assert(sizeof(Entry) == 16);

  /// Per-UE progress of the procedure this CPF is currently executing.
  struct ProcCtx {
    ProcedureType type = ProcedureType::kAttach;
    std::uint64_t proc_seq = 0;
    std::uint32_t source_region = 0;  // handover: where the UE came from
    std::uint32_t target_region = 0;
    bool relocating = false;   // 4G relocation: session being re-created
    CpfId source_cpf;          // relocation: who to acknowledge
    LogicalClock::Value last_lclock = 0;  // clock of latest message seen
  };

  void handle(Msg msg);  // runs after the request-core service time
  void handle_ue_message(Msg& msg);
  void handle_attach_flow(Msg& msg);
  void handle_service_flow(Msg& msg);
  void handle_handover_source(Msg& msg);
  void handle_handover_target(Msg& msg);
  void handle_handover_notify(Msg& msg);
  void handle_tau(Msg& msg);
  void handle_detach_flow(Msg& msg);
  void handle_downlink_notification(Msg& msg);
  void handle_upf_response(Msg& msg);
  void handle_replication(Msg& msg);

  void complete_procedure(Msg& msg);
  /// First live CPF of the UE's replica set in `region` other than this
  /// one; id() when there is none.
  [[nodiscard]] CpfId live_replica(UeId ue, std::uint32_t region) const;
  /// §4.3 slow path: park `original` and ask `holder` for the UE's state.
  void park_and_fetch(const Msg& original, CpfId holder);
  void send_checkpoint(UeId ue);
  void send_handoff_checkpoint(UeId ue, CpfId to, SimTime requested);
  [[nodiscard]] bool context_matches(const Msg& request) const;
  UeState& mutable_state(UeId ue);
  void reply_to_ue(const Msg& request, MsgKind kind);
  void ask_reattach(const Msg& request);
  void send_to_upf(const Msg& request, MsgKind kind);

  System* system_;
  CpfId id_;
  std::uint32_t region_;
  bool alive_ = true;
  std::uint32_t epoch_ = 0;
  sim::ServerPool request_pool_;
  sim::ServerPool sync_pool_;
  FlatHashMap<UeId, Entry> store_;
  FlatHashMap<UeId, ProcCtx> procs_;
  /// Handover requests parked while fetching the UE state (§4.3 slow path).
  FlatHashMap<UeId, Msg> pending_handover_;
};

// ---------------------------------------------------------------------------
// CTA: control traffic aggregator (§4.2.3) — front-end load balancer,
// logical-clock message log, ACK tracking, failure recovery driver.
// ---------------------------------------------------------------------------
class Cta {
 public:
  Cta(System& system, CtaId id, std::uint32_t region);

  /// From the UE/BS side.
  void deliver_uplink(Msg msg);
  /// From CPFs: responses toward the UE, checkpoint ACKs.
  void deliver_downlink(Msg msg);

  void on_cpf_failure(CpfId cpf);
  /// §4.1: the CTA performs CPF failure detection. Arms a periodic
  /// heartbeat probe of every CPF this CTA can route to; `misses`
  /// consecutive unanswered probes declare the CPF failed and drive
  /// recovery — no oracle notification needed (use System::crash_cpf_silently
  /// with this).
  void start_failure_detector(SimTime probe_interval, int misses = 3);
  void crash();
  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] std::uint32_t region() const { return region_; }

  /// Primary CPF this CTA routes the UE to (System's rings + failover
  /// overrides and elastic pins).
  [[nodiscard]] CpfId route(UeId ue) const;
  /// Elastic churn (DESIGN.md §19): pin every in-flight UE to its current
  /// route. System calls this before the region's level-1 ring changes, so
  /// an ownership move never splits a procedure across two CPFs.
  void pin_in_flight();

  [[nodiscard]] std::size_t log_bytes() const { return log_bytes_; }
  [[nodiscard]] std::size_t log_messages() const { return log_messages_; }
  /// Bytes of the per-UE record and probe tables (not what the records
  /// own: procedure logs, ACK sets).
  [[nodiscard]] std::size_t table_bytes() const {
    return ues_.memory_bytes() + missed_probes_.memory_bytes();
  }
  /// Chaos audit (DESIGN.md §12): appends a description of every violated
  /// log invariant — retained entries below first_seq_logged or beyond
  /// last_seq_logged, empty or fully-ACKed-but-unpruned procedure logs,
  /// and byte/message accounting that disagrees with a recount.
  void audit_log_invariants(std::vector<std::string>& out) const;
  /// Jobs queued or in service on the consumer pool.
  [[nodiscard]] std::size_t pool_depth() const { return pool_.queue_depth(); }
  /// Exact high-watermark of the consumer pool (overload reporting).
  [[nodiscard]] std::size_t pool_peak_depth() const {
    return pool_.peak_depth();
  }
  /// Cumulative service demand placed on this CTA (saturation-knee
  /// calibration: busy seconds per completed procedure bound the
  /// sustainable arrival rate).
  [[nodiscard]] SimTime pool_busy_time() const { return pool_.busy_time(); }
  /// Per-class admission rejections (windowed shed telemetry).
  [[nodiscard]] std::uint64_t pool_drops(sim::JobClass cls) const {
    return pool_.drops(cls);
  }
  [[nodiscard]] int pool_cores() const { return pool_.cores(); }

 private:
  struct LogEntry {
    Msg msg;
    std::size_t bytes = 0;
  };
  struct ProcedureLog {
    std::vector<LogEntry> entries;
    LogicalClock::Value end_lclock = 0;  // set by the checkpoint broadcast
    std::unordered_set<std::uint32_t> acked_by;  // replica CPF ids
    SimTime first_logged;
  };
  struct UeRecord {
    std::map<std::uint64_t, ProcedureLog> procedures;  // by proc_seq
    /// Highest procedure each replica has ACKed a checkpoint for (a
    /// checkpoint is a full-state snapshot, so ACKing k vouches for
    /// everything <= k). Entries are erased when the replica crashes: its
    /// volatile state — and the vouching — died with it.
    FlatHashMap<std::uint32_t, std::uint64_t> acked_through;
    std::uint64_t first_seq_logged = 0;
    std::uint64_t last_seq_logged = 0;
    std::optional<Msg> pending_request;  // in-flight, awaiting CPF response
    std::optional<CpfId> override_route; // failover target
    /// Elastic churn (DESIGN.md §19): pre-churn route a mid-procedure UE
    /// stays pinned to until a procedure newer than pinned_seq arrives —
    /// an ownership move never splits one procedure across two CPFs.
    std::optional<CpfId> pinned_route;
    std::uint64_t pinned_seq = 0;
  };
  static_assert(sizeof(UeRecord) <= 240);

  void forward_uplink(Msg msg);  // after CTA service time
  void handle_ack(const Msg& msg);
  void arm_scan();               // schedule the next §4.2.4 timeout scan
  void scan_log();
  void recover_ue(UeId ue, UeRecord& rec);
  void account_log(std::ptrdiff_t delta_bytes, std::ptrdiff_t delta_msgs);
  void prune_procedure(UeRecord& rec, std::uint64_t proc_seq);
  void notify_outdated(UeId ue, const ProcedureLog& plog,
                       std::uint64_t proc_seq);

  System* system_;
  CtaId id_;
  std::uint32_t region_;
  bool alive_ = true;
  sim::ServerPool pool_;
  LogicalClock lclock_;
  FlatHashMap<UeId, UeRecord> ues_;
  std::size_t log_bytes_ = 0;
  std::size_t log_messages_ = 0;
  bool scan_armed_ = false;
  // Heartbeat failure detector state.
  SimTime probe_interval_;
  int probe_miss_limit_ = 3;
  FlatHashMap<std::uint32_t, int> missed_probes_;
  std::unordered_set<std::uint32_t> declared_failed_;
  void probe_round();
};

// ---------------------------------------------------------------------------
// Frontend: trace-driven UE + BS emulator (the paper's DPDK generator).
// ---------------------------------------------------------------------------
class Frontend {
 public:
  explicit Frontend(System& system);

  /// Kick off a control procedure for a UE. For handovers, `target_region`
  /// names the destination level-1 region (== current region for
  /// kIntraHandover).
  void start_procedure(UeId ue, ProcedureType type,
                       std::uint32_t target_region = 0);

  /// Create a UE that is already attached with state installed at its
  /// primary and backups (bench populations skip millions of attaches).
  void preattach(UeId ue, std::uint32_t region);
  /// Sharded building blocks of preattach(): the home shard installs the
  /// UE context, while each replica's *owning* shard runs the
  /// Cpf::preinstall calls (ShardedSystem::preattach drives both).
  void preattach_context(UeId ue, std::uint32_t region);
  [[nodiscard]] static StateRef make_preattached_state(std::uint32_t region);

  /// Idle-mode mobility: the UE silently moves to another region; its next
  /// procedure (typically a kTau) runs through the new region's CTA.
  void idle_move(UeId ue, std::uint32_t new_region);

  void deliver(Msg msg);  // responses from the core (via CTA)
  void on_cta_failure(std::uint32_t region);

  [[nodiscard]] std::uint64_t completed(UeId ue) const;
  [[nodiscard]] bool is_attached(UeId ue) const;
  [[nodiscard]] std::uint32_t region_of(UeId ue) const;
  /// True while a control procedure is outstanding for the UE — a UE
  /// still in flight at the end of a chaos run counts as "lost".
  [[nodiscard]] bool in_flight(UeId ue) const;

  /// Data-plane outage accounting for the application studies (§6.6):
  /// [start, end) intervals during which the UE had no usable data path.
  /// Only watched UEs keep a history: watch before the UE's first
  /// procedure to see every interval. outages() of an unwatched UE aborts
  /// in every build, since an empty history would read as "no outage".
  struct Outage {
    SimTime start;
    SimTime end;
  };
  void watch_outages(UeId ue);
  [[nodiscard]] const std::vector<Outage>& outages(UeId ue) const;

  /// Bytes of this Frontend's tables (capacity × slot; see
  /// FlatHashMap::memory_bytes).
  [[nodiscard]] std::size_t table_bytes() const {
    return ues_.memory_bytes() + outage_logs_.memory_bytes();
  }

 private:
  /// Fields run from widest to narrowest: 40 bytes, one per UE the
  /// Frontend has seen. Each narrow field has a guard that aborts in
  /// every build instead of wrapping: numbering a procedure past
  /// UINT32_MAX, a region id past UINT16_MAX (System refuses
  /// topologies of more than 65,535 regions) and a retransmission attempt
  /// past 255 (System refuses a larger nas_retx_budget).
  struct UeCtx {
    SimTime start_time;
    std::uint32_t completed_procs = 0;
    /// proc_seq of the last procedure this UE saw complete: the RYW ground
    /// truth the core's served_proc is checked against.
    std::uint32_t last_completed_seq = 0;
    std::uint32_t next_proc_seq = 1;
    // In-flight procedure, if any.
    std::uint32_t proc_seq = 0;
    std::uint16_t region = 0;
    std::uint16_t prev_region = 0;  // before the last move (replica lookup)
    std::uint16_t ho_target = 0;
    // NAS retransmission (DESIGN.md §13): the last uplink sent and how
    // often it has been re-sent. A pending retx timer is stale unless
    // (proc_seq, last_uplink, retx_attempt) all still match.
    std::uint8_t retx_attempt = 0;
    MsgKind last_uplink = MsgKind::kAttachRequest;
    MsgKind awaiting = MsgKind::kAttachAccept;
    ProcedureType proc_type = ProcedureType::kAttach;
    ProcedureType reported_type = ProcedureType::kAttach;  // original type
    bool in_flight = false;
    bool under_failure = false;
    bool paging_response = false;  // current procedure answers a page
    bool attached = false;
  };
  static_assert(sizeof(UeCtx) == 40);

  /// A watched UE's outage history: the open interval, if any, and the
  /// closed ones in order.
  struct OutageLog {
    SimTime start;
    bool open = false;
    std::vector<Outage> closed;
  };

  void send_uplink(UeCtx& ctx, UeId ue, MsgKind kind);
  /// Arm the NAS retransmission timer for the uplink just sent (no-op when
  /// proto().nas_retx_timeout is zero or the uplink expects no response).
  void arm_retx(UeCtx& ctx, UeId ue, MsgKind kind);
  void complete(UeCtx& ctx, UeId ue, const Msg& final_msg);
  void begin_reattach(UeCtx& ctx, UeId ue);
  void begin_outage(UeId ue);
  void end_outage(UeId ue);
  void check_ryw(UeCtx& ctx, const Msg& msg);

  System* system_;
  FlatHashMap<UeId, UeCtx> ues_;
  FlatHashMap<UeId, OutageLog> outage_logs_;  // watched UEs only
  /// Cached "frontend.completions{proc=..}" registry handles, by type.
  std::array<obs::Counter*, kProcTypes> completion_counters_{};
};

// ---------------------------------------------------------------------------
// System: owns every node, routes messages with link latencies.
// ---------------------------------------------------------------------------
class System {
 public:
  System(sim::EventLoop& loop, CorePolicy policy, TopologyConfig topo,
         ProtocolConfig proto, const CostModel& costs, Metrics& metrics,
         ShardSpec shard = {});

  // Accessors used by the actors.
  [[nodiscard]] sim::EventLoop& loop() { return *loop_; }
  [[nodiscard]] const CorePolicy& policy() const { return policy_; }
  [[nodiscard]] const TopologyConfig& topo() const { return topo_; }
  [[nodiscard]] const ProtocolConfig& proto() const { return proto_; }
  [[nodiscard]] const CostModel& costs() const { return *costs_; }
  [[nodiscard]] Metrics& metrics() { return *metrics_; }

  /// Procedure tracing is off (and costs one null test per site) until a
  /// tracer is attached. The tracer must outlive the attachment.
  void attach_tracer(obs::ProcTracer& tracer) { tracer_ = &tracer; }
  [[nodiscard]] obs::ProcTracer* tracer() { return tracer_; }

  /// Flight recording is off (one null test per site) until a recorder is
  /// attached; one recorder per System (per shard). The recorder must
  /// outlive the attachment.
  void attach_flight_recorder(obs::FlightRecorder& flight) {
    flight_ = &flight;
  }
  [[nodiscard]] obs::FlightRecorder* flight() { return flight_; }

  /// Chaos-harness attachment points (DESIGN.md §12): the online
  /// invariant checker observes UE-visible milestones; the fault knobs
  /// plant deliberate bugs for the checker's teeth tests. Both are inert
  /// until used; the observer must outlive the attachment.
  void attach_invariant_observer(InvariantObserver& obs) {
    invariant_observer_ = &obs;
  }
  void detach_invariant_observer() { invariant_observer_ = nullptr; }
  [[nodiscard]] InvariantObserver* invariant_observer() {
    return invariant_observer_;
  }
  [[nodiscard]] FaultInjection& faults() { return faults_; }

  [[nodiscard]] Frontend& frontend() { return *frontend_; }

  /// Table census of the nodes this System owns (shadows excluded).
  [[nodiscard]] TableBytes table_bytes() const;

  /// One trace arrival as replay() keeps it until it fires (16 bytes):
  /// the generators number UEs from 0, and a region fits 16 bits (see
  /// the System constructor).
  struct Arrival {
    SimTime at;
    std::uint32_t ue = 0;
    std::uint16_t target_region = 0;
    ProcedureType type = ProcedureType::kAttach;

    /// From a traffic::TraceRecord-shaped record (core sits below traffic).
    /// A UE id or target region that does not fit aborts, naming the
    /// record, in every build.
    template <class Record>
    static Arrival of(const Record& rec) {
      if (rec.ue.value() > std::numeric_limits<std::uint32_t>::max() ||
          rec.target_region > std::numeric_limits<std::uint16_t>::max())
          [[unlikely]] {
        unfit(rec.at, rec.ue.value(), rec.target_region);
      }
      return {rec.at, static_cast<std::uint32_t>(rec.ue.value()),
              static_cast<std::uint16_t>(rec.target_region), rec.type};
    }

   private:
    [[gnu::cold, gnu::noinline]] [[noreturn]] static void unfit(
        SimTime at, std::uint64_t ue, std::uint64_t target_region);
  };
  static_assert(sizeof(Arrival) == 16);

  /// Replay arrivals, given in trace order, as one event stream on this
  /// System's loop (DESIGN.md §11): each starts its procedure on the
  /// Frontend at its time, under the (time, seq) key that scheduling the
  /// records one by one in trace order would give it, while the queue
  /// holds only the next one. A trace that is not sorted by time is
  /// stable-sorted first, so equal times keep trace order. Pre-attached
  /// UEs are the caller's responsibility.
  void replay(std::vector<Arrival> arrivals);

  [[nodiscard]] Cta& cta(std::uint32_t region) { return *ctas_[region]; }
  [[nodiscard]] Cpf& cpf(CpfId id) { return *cpfs_[id.value()]; }
  [[nodiscard]] Upf& upf(std::uint32_t region) { return *upfs_[region]; }
  [[nodiscard]] bool cta_alive(std::uint32_t region) const {
    return ctas_[region]->alive();
  }
  [[nodiscard]] bool cpf_alive(CpfId id) const {
    return cpfs_[id.value()]->alive();
  }

  // -- sharding (see core/shard_link.hpp; identity in single-shard mode) ----
  /// Owning shard for a level-1 region: contiguous blocks, so intra-block
  /// links (the short ones) stay shard-local and the lookahead is bounded
  /// by the cheaper *inter*-block latencies.
  [[nodiscard]] std::uint32_t shard_of_region(std::uint32_t region) const {
    return region / regions_per_shard_;
  }
  /// True when this System instance executes the region's node logic
  /// (always true without a sink — the legacy single-threaded mode).
  [[nodiscard]] bool owns_region(std::uint32_t region) const {
    return shard_.sink == nullptr ||
           shard_of_region(region) == shard_.shard;
  }
  [[nodiscard]] const ShardSpec& shard() const { return shard_; }
  /// Re-entry point for cross-shard messages: schedules the envelope's
  /// message onto this shard's loop at the precomputed arrival time, where
  /// it reaches its node through the same dispatch as a local hop.
  void deliver_envelope(SimTime arrival, ShardEnvelope envelope);

  /// Stable key a UE hashes to on every ring (M-TMSI/S1AP id, §4.3 fn15).
  [[nodiscard]] static std::uint64_t ue_key(UeId ue) {
    return mix64(ue.value() * 0x9e3779b97f4a7c15ULL + 1);
  }

  // -- placement (§4.3): the rings below are its only record ---------------
  /// CPF the UE's region's CTA routes it to now (Cta::route: ring owner,
  /// failover overrides, elastic pins, liveness).
  [[nodiscard]] CpfId primary_cpf_for(UeId ue, std::uint32_t region) const;
  /// Backup set for a UE homed in `region`: the first policy().num_backups
  /// CPFs of its level-2 ring that lie outside `region`, or, when its
  /// level-2 region has no other member, the primary's level-1 successors.
  [[nodiscard]] std::vector<CpfId> backups_for(UeId ue,
                                               std::uint32_t region) const;
  /// Pure level-1 ring owner for a UE homed in `region` (no liveness, no
  /// overrides, no pins): the elastic handoff set is computed against this
  /// before and after churn.
  [[nodiscard]] CpfId hashed_primary_for(UeId ue,
                                         std::uint32_t region) const {
    return level1_rings_[region].lookup(ue_key(ue));
  }
  /// The level-1 ring of `region`: its CPFs that are in the rings.
  [[nodiscard]] const geo::ConsistentHashRing<CpfId>& level1_ring(
      std::uint32_t region) const {
    return level1_rings_[region];
  }
  /// Every CPF a CTA in `region` can route to: the region's ring members,
  /// then the level-2 region's other ring members, each ascending by id.
  [[nodiscard]] std::vector<CpfId> routable_cpfs(std::uint32_t region) const;

  // -- elastic churn (DESIGN.md §19) ---------------------------------------
  /// Add a CPF to the rings at runtime: pin the region CTA's in-flight UEs,
  /// add the CPF to its level-1 and level-2 rings, then ship each affected
  /// UE's state from its pre-churn owner to the joiner via the checkpoint
  /// machinery. No-op if the CPF is already a member (so shrunken
  /// schedules with unmatched scale-out/drain pairs stay valid).
  void scale_out_cpf(CpfId id);
  /// Remove a CPF from the rings at runtime: hand its UEs to their new
  /// ring owners, keep serving pinned in-flight procedures through
  /// proto().drain_grace, then retire (anything still pending recovers
  /// through the ordinary failover/replay path). No-op for a non-member
  /// or for the region's last ring member (drain is liveness-preserving).
  void drain_cpf(CpfId id);
  [[nodiscard]] bool cpf_in_ring(CpfId id) const {
    return level1_rings_[topo_.region_of_cpf(id)].contains(id);
  }
  /// Bumped by every scale-out/drain; zero means the rings never churned
  /// (churn-free runs stay byte-identical to pre-elastic builds).
  [[nodiscard]] std::uint64_t ring_epoch() const { return ring_epoch_; }

  // -- message transport (applies link latency, drops to dead nodes) -------
  void ue_to_cta(std::uint32_t region, Msg msg);
  void cta_to_ue(Msg msg);
  void cta_to_cpf(std::uint32_t cta_region, CpfId cpf, Msg msg);
  void cpf_to_cta(CpfId from, std::uint32_t cta_region, Msg msg);
  void cpf_to_cpf(CpfId from, CpfId to, Msg msg);
  void cpf_to_upf(CpfId from, std::uint32_t upf_region, Msg msg);
  void upf_to_cpf(std::uint32_t upf_region, CpfId cpf, Msg msg);

  /// Inject downlink data for a UE at its serving region's UPF (drives the
  /// paging path; Fig. 2 scenario).
  void trigger_downlink(UeId ue);

  void upf_to_cta(std::uint32_t upf_region, Msg msg);

  /// Bounded admission (DESIGN.md §13) of `msg` at `pool`, the ingress of
  /// `node` ("cta"/"cpf") in `region`: false, with the shed counted on the
  /// pool, the flight recorder and the metrics, if its class is refused.
  [[nodiscard]] bool admit(sim::ServerPool& pool, const Msg& msg,
                           std::uint32_t region, const char* node);

  // -- failure injection ----------------------------------------------------
  void crash_cpf(CpfId id);
  /// Crash without notifying anyone: detection is left to the CTAs'
  /// heartbeat monitors (Cta::start_failure_detector).
  void crash_cpf_silently(CpfId id);
  void restore_cpf(CpfId id);
  void crash_cta(std::uint32_t region);

  /// Total log bytes of the owned CTAs, folded into
  /// Metrics::cta_log_peak_bytes (Fig. 17). Call from a bounded sampler
  /// (obs::PeriodicSampler); nothing is scheduled here.
  void sample_log_sizes();

  /// Windowed telemetry (DESIGN.md §15): schedules a sample_telemetry()
  /// tick every `window` of sim-time up to `until` on this System's loop.
  /// Off by default; each tick records per-window counter deltas (sheds,
  /// drops, retransmissions, events, cross-shard posts) and point samples
  /// (queue depth, busy fraction) into the registry's windowed series,
  /// labeled by shard/region so sharded merges stay deterministic.
  void arm_telemetry(SimTime window, SimTime until);
  [[nodiscard]] bool telemetry_armed() const {
    return telemetry_window_.ns() > 0;
  }
  /// One telemetry tick (called by the armed sampler; tests may call it
  /// directly). Skips regions this shard does not own.
  void sample_telemetry();

 private:
  using Dest = ShardEnvelope::Dest;

  /// Latency between nodes in regions `a` and `b`: `local` inside one
  /// region, the inter-region CPF link otherwise.
  [[nodiscard]] SimTime link_latency(std::uint32_t a, std::uint32_t b,
                                     SimTime local) const {
    return a == b ? local : topo_.cpf_link(a, b);
  }

  /// Carry `msg` to node `dest_id` of kind `dest` in `dest_region`: trace
  /// the hop as `link`, then post it to the shard owning `dest_region` or
  /// schedule its arrival on this loop.
  void send(Dest dest, std::uint32_t dest_id, std::uint32_t dest_region,
            SimTime latency, const char* link, Msg msg);
  /// Hand an arrived message to its node's entry point; a CTA or CPF that
  /// is dead at arrival drops it.
  void dispatch(Dest dest, std::uint32_t dest_id, Msg msg);

  /// Drain epilogue: after proto().drain_grace the drained CPF goes down
  /// for real (crash-style epoch bump + failure notification), unless a
  /// scale-out re-admitted it during the grace window.
  void retire_cpf(CpfId id);

  /// A UE↔CTA hop for a region another shard owns: print the region, its
  /// owner and this shard, then abort (every build type).
  [[gnu::cold, gnu::noinline]] [[noreturn]] void cross_shard_ue_link(
      const char* link, std::uint32_t region) const;

  sim::EventLoop* loop_;
  CorePolicy policy_;
  TopologyConfig topo_;
  ProtocolConfig proto_;
  const CostModel* costs_;
  Metrics* metrics_;
  ShardSpec shard_;
  std::uint32_t regions_per_shard_ = 1;
  obs::ProcTracer* tracer_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  InvariantObserver* invariant_observer_ = nullptr;
  FaultInjection faults_;

  /// Placement rings (§4.3), indexed by region and by level-2 region. A
  /// level-2 ring holds every CPF of its level-2 region; backups_for walks
  /// it past the home region's. Every shard holds identical rings, since
  /// scale-out/drain calls are scheduled on all shards at the same time.
  std::vector<geo::ConsistentHashRing<CpfId>> level1_rings_;
  std::vector<geo::ConsistentHashRing<CpfId>> level2_rings_;
  std::uint64_t ring_epoch_ = 0;

  // Windowed-telemetry state (arm_telemetry): previous-tick counter
  // snapshots so each tick records per-window deltas. Sim-time only.
  SimTime telemetry_window_;  ///< zero = off
  struct RegionTelemSnap {
    std::int64_t cta_busy_ns = 0;
    std::int64_t cpf_busy_ns = 0;
    std::array<std::uint64_t, sim::kJobClasses> drops{};
  };
  struct TelemSnap {
    std::uint64_t executed = 0;
    std::uint64_t completed = 0;
    std::uint64_t cross_posts = 0;
    std::uint64_t attach_sheds = 0;
    std::uint64_t overload_drops = 0;
    std::uint64_t nas_retx = 0;
    std::uint64_t retx_exhausted = 0;
    std::vector<RegionTelemSnap> regions;
  };
  TelemSnap telem_prev_;

  std::vector<std::unique_ptr<Cta>> ctas_;
  std::vector<std::unique_ptr<Cpf>> cpfs_;
  std::vector<std::unique_ptr<Upf>> upfs_;
  std::unique_ptr<Frontend> frontend_;
};

}  // namespace neutrino::core
