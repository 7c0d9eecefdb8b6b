#include "core/system.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/sampler.hpp"

namespace neutrino::core {
namespace {

/// UE/BS emulator to the region's CTA, and the CTA and UPF links of a
/// region (the paper's two directly-cabled DPDK servers: tens of
/// microseconds end to end).
constexpr SimTime kUeToCta = SimTime::microseconds(10);
constexpr SimTime kCtaToCpf = SimTime::microseconds(5);
constexpr SimTime kCpfToUpf = SimTime::microseconds(5);

constexpr int kUpfCores = 4;
/// UPF session-table operation.
constexpr SimTime kUpfOpCost = SimTime::microseconds(2);

}  // namespace

// ---------------------------------------------------------------------------
// Upf
// ---------------------------------------------------------------------------

Upf::Upf(System& system, UpfId id, std::uint32_t region)
    : system_(&system),
      id_(id),
      region_(region),
      pool_(system.loop(), kUpfCores) {}

void Upf::deliver(Msg msg) {
  if (obs::ProcTracer* tr = system_->tracer()) {
    const SimTime now = system_->loop().now();
    const SimTime queued = pool_.backlog();
    tr->hop(msg, obs::HopClass::kQueueing, "upf", region_, now, now + queued);
    tr->hop(msg, obs::HopClass::kService, "upf", region_, now + queued,
            now + queued + kUpfOpCost);
  }
  pool_.submit(kUpfOpCost,
               [this, m = std::move(msg)]() mutable { handle(std::move(m)); });
}

void Upf::handle(Msg msg) {
  Msg reply = msg;
  reply.src_cpf = msg.src_cpf;
  switch (msg.kind) {
    case MsgKind::kCreateSession: {
      auto [it, inserted] = sessions_.try_emplace(msg.ue, Teid(next_teid_));
      if (inserted) ++next_teid_;
      reply.kind = MsgKind::kCreateSessionResponse;
      break;
    }
    case MsgKind::kModifyBearer:
      // Path switch / bearer refresh; idempotent in the model.
      sessions_.try_emplace(msg.ue, Teid(next_teid_++));
      reply.kind = MsgKind::kModifyBearerResponse;
      break;
    case MsgKind::kDeleteSession:
      sessions_.erase(msg.ue);
      reply.kind = MsgKind::kDeleteSessionResponse;
      break;
    default:
      return;  // not a UPF message
  }
  system_->upf_to_cpf(region_, msg.src_cpf, std::move(reply));
}

void Upf::notify_downlink(UeId ue) {
  pool_.submit(kUpfOpCost, [this, ue] {
    Msg ddn;
    ddn.kind = MsgKind::kDownlinkDataNotification;
    ddn.ue = ue;
    ddn.region = region_;
    system_->upf_to_cta(region_, std::move(ddn));
  });
}

void Upf::preinstall(UeId ue) {
  sessions_.try_emplace(ue, Teid(next_teid_++));
}

// ---------------------------------------------------------------------------
// System
// ---------------------------------------------------------------------------

namespace {

/// A CPF's position seed on every ring it joins.
std::uint64_t ring_seed(CpfId cpf) { return 0x5a5a0000ULL + cpf.value(); }

}  // namespace

System::System(sim::EventLoop& loop, CorePolicy policy, TopologyConfig topo,
               ProtocolConfig proto, const CostModel& costs, Metrics& metrics,
               ShardSpec shard)
    : loop_(&loop),
      policy_(policy),
      topo_(topo),
      proto_(proto),
      costs_(&costs),
      metrics_(&metrics),
      shard_(shard) {
  const int regions = topo_.total_regions();
  assert(shard_.n_shards >= 1 &&
         static_cast<int>(shard_.n_shards) <= regions);
  // Ceiling division: the last shard may own fewer regions.
  regions_per_shard_ = (static_cast<std::uint32_t>(regions) +
                        shard_.n_shards - 1) /
                       shard_.n_shards;
  ctas_.reserve(static_cast<std::size_t>(regions));
  upfs_.reserve(static_cast<std::size_t>(regions));
  cpfs_.reserve(static_cast<std::size_t>(topo_.total_cpfs()));
  level1_rings_.resize(static_cast<std::size_t>(regions));
  level2_rings_.resize(static_cast<std::size_t>(topo_.l2_regions));
  for (int cpf = 0; cpf < topo_.total_cpfs(); ++cpf) {
    const auto id = CpfId(static_cast<std::uint32_t>(cpf));
    const std::uint32_t region = topo_.region_of_cpf(id);
    cpfs_.push_back(std::make_unique<Cpf>(*this, id, region));
    level1_rings_[region].add(id, ring_seed(id));
    level2_rings_[topo_.l2_of(region)].add(id, ring_seed(id));
  }
  for (int region = 0; region < regions; ++region) {
    const auto r = static_cast<std::uint32_t>(region);
    ctas_.push_back(std::make_unique<Cta>(*this, CtaId(r), r));
    upfs_.push_back(std::make_unique<Upf>(*this, UpfId(r), r));
  }
  frontend_ = std::make_unique<Frontend>(*this);
}

CpfId System::primary_cpf_for(UeId ue, std::uint32_t region) const {
  return ctas_[region]->route(ue);
}

std::vector<CpfId> System::backups_for(UeId ue, std::uint32_t region) const {
  const auto n = static_cast<std::size_t>(policy_.num_backups);
  if (n == 0) return {};
  const auto& level1 = level1_rings_[region];
  const auto& level2 = level2_rings_[topo_.l2_of(region)];
  if (level2.node_count() > level1.node_count()) {
    // §4.3: "N consecutive replicas on a level-2 ring (not included in the
    // level-1 ring)" — backups live outside the primary's region, so a
    // region-wide failure cannot take out every copy.
    return level2.successors(ue_key(ue), n, [&](CpfId c) {
      return topo_.region_of_cpf(c) == region;
    });
  }
  // One level-1 region per level-2 region (the paper's 5-instance
  // testbed): backups are the primary's ring successors in-region.
  auto chain = level1.successors(ue_key(ue), n + 1);
  chain.erase(chain.begin());  // drop the primary itself
  return chain;
}

std::vector<CpfId> System::routable_cpfs(std::uint32_t region) const {
  std::vector<CpfId> out = level1_rings_[region].nodes();
  for (const CpfId c : level2_rings_[topo_.l2_of(region)].nodes()) {
    if (topo_.region_of_cpf(c) != region) out.push_back(c);
  }
  return out;
}

void System::cross_shard_ue_link(const char* link,
                                 std::uint32_t region) const {
  std::fprintf(stderr,
               "System: cross-shard %s link: region %u is owned by shard %u, "
               "called on shard %u (inter-shard handover or CTA-crash "
               "reroute; unsupported under sharding)\n",
               link, region, shard_of_region(region), shard_.shard);
  std::abort();
}

void System::ue_to_cta(std::uint32_t region, Msg msg) {
  // UE↔CTA links (10µs) sit *below* the cross-shard lookahead, so UEs are
  // pinned to the shard owning their home region; scenarios that would
  // re-home a UE across a shard boundary (inter-shard handover, CTA-crash
  // reroute) are unsupported under sharding — see DESIGN.md §11. Checked
  // in every build: a shadow CTA must never run the procedure.
  if (!owns_region(region)) [[unlikely]] {
    cross_shard_ue_link("UE->CTA", region);
  }
  send(Dest::kCtaUplink, region, region, kUeToCta, "ue->cta", std::move(msg));
}

void System::cta_to_ue(Msg msg) {
  const std::uint32_t region = msg.region;
  if (!owns_region(region)) [[unlikely]] {
    cross_shard_ue_link("CTA->UE", region);
  }
  send(Dest::kUe, region, region, kUeToCta, "cta->ue", std::move(msg));
}

void System::cta_to_cpf(std::uint32_t cta_region, CpfId cpf, Msg msg) {
  const std::uint32_t cpf_region = topo_.region_of_cpf(cpf);
  send(Dest::kCpf, cpf.value(), cpf_region,
       link_latency(cta_region, cpf_region, kCtaToCpf),
       "cta->cpf", std::move(msg));
}

void System::cpf_to_cta(CpfId from, std::uint32_t cta_region, Msg msg) {
  send(Dest::kCtaDownlink, cta_region, cta_region,
       link_latency(topo_.region_of_cpf(from), cta_region, kCtaToCpf),
       "cpf->cta", std::move(msg));
}

void System::cpf_to_cpf(CpfId from, CpfId to, Msg msg) {
  const std::uint32_t to_region = topo_.region_of_cpf(to);
  send(Dest::kCpf, to.value(), to_region,
       topo_.cpf_link(topo_.region_of_cpf(from), to_region), "cpf->cpf",
       std::move(msg));
}

void System::cpf_to_upf(CpfId from, std::uint32_t upf_region, Msg msg) {
  send(Dest::kUpf, upf_region, upf_region,
       link_latency(topo_.region_of_cpf(from), upf_region, kCpfToUpf),
       "cpf->upf", std::move(msg));
}

void System::upf_to_cpf(std::uint32_t upf_region, CpfId cpf, Msg msg) {
  const std::uint32_t cpf_region = topo_.region_of_cpf(cpf);
  send(Dest::kCpf, cpf.value(), cpf_region,
       link_latency(upf_region, cpf_region, kCpfToUpf),
       "upf->cpf", std::move(msg));
}

void System::upf_to_cta(std::uint32_t upf_region, Msg msg) {
  send(Dest::kCtaUplink, upf_region, upf_region, kCpfToUpf, "upf->cta",
       std::move(msg));
}

void System::trigger_downlink(UeId ue) {
  const std::uint32_t region = frontend_->region_of(ue);
  upfs_[region]->notify_downlink(ue);
}

void System::send(Dest dest, std::uint32_t dest_id, std::uint32_t dest_region,
                  SimTime latency, const char* link, Msg msg) {
  const SimTime now = loop_->now();
  if (tracer_) {
    tracer_->hop(msg, obs::HopClass::kPropagation, link, dest_id, now,
                 now + latency);
  }
  if (!owns_region(dest_region)) {
    // The arrival lies past the current window's end (the lookahead is
    // below every cross-shard link), so the owner schedules it later.
    ++metrics_->cross_shard_posts;
    shard_.sink->post(shard_of_region(dest_region), now + latency,
                      ShardEnvelope{dest, dest_id, std::move(msg)});
    return;
  }
  loop_->schedule_at(now + latency,
                     [this, dest, dest_id, m = std::move(msg)]() mutable {
                       dispatch(dest, dest_id, std::move(m));
                     });
}

void System::deliver_envelope(SimTime arrival, ShardEnvelope envelope) {
  // The lookahead guarantees arrival > the window this loop just ran to,
  // so the max() below never actually clamps.
  loop_->schedule_at(std::max(arrival, loop_->now()),
                     [this, e = std::move(envelope)]() mutable {
                       dispatch(e.dest, e.dest_id, std::move(e.msg));
                     });
}

void System::dispatch(Dest dest, std::uint32_t dest_id, Msg msg) {
  // A CTA or CPF that is down when the message arrives drops it; one
  // restored before the arrival takes it.
  switch (dest) {
    case Dest::kUe:
      frontend_->deliver(std::move(msg));
      break;
    case Dest::kCtaUplink:
      if (ctas_[dest_id]->alive()) {
        ctas_[dest_id]->deliver_uplink(std::move(msg));
      }
      break;
    case Dest::kCtaDownlink:
      if (ctas_[dest_id]->alive()) {
        ctas_[dest_id]->deliver_downlink(std::move(msg));
      }
      break;
    case Dest::kCpf:
      if (cpfs_[dest_id]->alive()) cpfs_[dest_id]->deliver(std::move(msg));
      break;
    case Dest::kUpf:
      upfs_[dest_id]->deliver(std::move(msg));
      break;
  }
}

bool System::admit(sim::ServerPool& pool, const Msg& msg,
                   std::uint32_t region, const char* node) {
  const sim::JobClass cls = job_class_of(msg);
  if (pool.admits(cls)) return true;
  pool.count_drop(cls);
  const bool attach = cls == sim::JobClass::kAttach;
  if (flight_) {
    flight_->record(loop_->now(),
                    attach ? obs::FlightRecorder::Kind::kAttachShed
                           : obs::FlightRecorder::Kind::kOverloadDrop,
                    static_cast<std::int64_t>(msg.ue.value()), region, node);
  }
  ++(attach ? metrics_->attach_sheds : metrics_->overload_drops);
  return false;
}

void System::crash_cpf(CpfId id) {
  // Crashes are mirrored on every shard; record them only where the node
  // is owned so merged flight dumps carry each crash exactly once.
  if (flight_ && owns_region(cpfs_[id.value()]->region())) {
    flight_->record(loop_->now(), obs::FlightRecorder::Kind::kCrashCpf,
                    id.value(), cpfs_[id.value()]->region());
  }
  cpfs_[id.value()]->crash();
  // Every CTA that might route to this CPF learns after the detection
  // delay (excluded from PCT when zero, per §6.4). Under sharding the
  // crash is mirrored on every shard (shadow liveness stays consistent),
  // but only owned CTAs hold UE records and drive recovery.
  loop_->schedule_after(proto_.failure_detection, [this, id] {
    for (auto& cta : ctas_) {
      if (cta->alive() && owns_region(cta->region())) {
        cta->on_cpf_failure(id);
      }
    }
  });
}

void System::crash_cpf_silently(CpfId id) {
  if (flight_ && owns_region(cpfs_[id.value()]->region())) {
    flight_->record(loop_->now(), obs::FlightRecorder::Kind::kCrashCpf,
                    id.value(), cpfs_[id.value()]->region(), "silent");
  }
  cpfs_[id.value()]->crash();
}

void System::restore_cpf(CpfId id) {
  if (flight_ && owns_region(cpfs_[id.value()]->region())) {
    flight_->record(loop_->now(), obs::FlightRecorder::Kind::kRestoreCpf,
                    id.value(), cpfs_[id.value()]->region());
  }
  cpfs_[id.value()]->restore();
}

void System::crash_cta(std::uint32_t region) {
  if (flight_ && owns_region(region)) {
    flight_->record(loop_->now(), obs::FlightRecorder::Kind::kCrashCta,
                    region);
  }
  ctas_[region]->crash();
  loop_->schedule_after(proto_.failure_detection, [this, region] {
    frontend_->on_cta_failure(region);
  });
}

void System::scale_out_cpf(CpfId id) {
  if (cpf_in_ring(id)) return;  // already a member: no-op
  const std::uint32_t region = cpfs_[id.value()]->region();
  ++ring_epoch_;
  if (owns_region(region)) {
    ++metrics_->scale_outs;
    if (flight_) {
      flight_->record(loop_->now(), obs::FlightRecorder::Kind::kScaleOutCpf,
                      id.value(), region);
    }
  }
  // A retired/crashed joiner comes back as a fresh incarnation (its epoch
  // was bumped at crash time, so straggler ACKs from before stay rejected).
  if (!cpfs_[id.value()]->alive()) cpfs_[id.value()]->restore();
  // Snapshot, per surviving pool member, the UEs it owns under the
  // *pre-churn* ring; after the re-ring, whichever of those now hash to
  // the joiner get their state shipped over from the old owner.
  std::vector<std::pair<UeId, CpfId>> moved;
  if (owns_region(region)) {
    std::vector<UeId> served;
    for (const CpfId c : level1_rings_[region].nodes()) {
      if (!cpfs_[c.value()]->alive()) continue;
      served.clear();
      cpfs_[c.value()]->collect_served(served);
      for (UeId ue : served) {
        if (hashed_primary_for(ue, region) == c) moved.push_back({ue, c});
      }
    }
    std::sort(moved.begin(), moved.end());
  }
  ctas_[region]->pin_in_flight();
  level1_rings_[region].add(id, ring_seed(id));
  level2_rings_[topo_.l2_of(region)].add(id, ring_seed(id));
  for (const auto& [ue, from] : moved) {
    if (hashed_primary_for(ue, region) == id) {
      cpfs_[from.value()]->handoff(ue, id);
    }
  }
}

void System::drain_cpf(CpfId id) {
  if (!cpf_in_ring(id)) return;  // not a member: no-op
  const std::uint32_t region = cpfs_[id.value()]->region();
  // Liveness guard: never drain a region's last ring member (a shrunken
  // chaos schedule may ask; refusing keeps every event subset valid).
  if (level1_rings_[region].node_count() <= 1) return;
  ++ring_epoch_;
  if (owns_region(region)) {
    ++metrics_->drains;
    if (flight_) {
      flight_->record(loop_->now(), obs::FlightRecorder::Kind::kDrainCpf,
                      id.value(), region);
    }
  }
  // The handoff set is the drained CPF's pre-churn ownership; computed
  // before the re-ring, shipped after (so the recipients are final).
  std::vector<UeId> moved;
  if (owns_region(region) && cpfs_[id.value()]->alive()) {
    std::vector<UeId> served;
    cpfs_[id.value()]->collect_served(served);
    for (UeId ue : served) {
      if (hashed_primary_for(ue, region) == id) moved.push_back(ue);
    }
    std::sort(moved.begin(), moved.end());
  }
  ctas_[region]->pin_in_flight();
  level1_rings_[region].remove(id);
  level2_rings_[topo_.l2_of(region)].remove(id);
  for (UeId ue : moved) {
    cpfs_[id.value()]->handoff(ue, hashed_primary_for(ue, region));
  }
  loop_->schedule_after(proto_.drain_grace, [this, id] { retire_cpf(id); });
}

void System::retire_cpf(CpfId id) {
  // A scale-out during the grace window re-admitted it: keep it running.
  if (cpf_in_ring(id)) return;
  if (!cpfs_[id.value()]->alive()) return;  // crashed meanwhile
  const std::uint32_t region = cpfs_[id.value()]->region();
  if (flight_ && owns_region(region)) {
    flight_->record(loop_->now(), obs::FlightRecorder::Kind::kDrainCpf,
                    id.value(), region, "retire");
  }
  cpfs_[id.value()]->crash();
  // Anything still pinned to the drained CPF recovers exactly like a
  // crash: the CTAs fail over and replay from the logged messages.
  loop_->schedule_after(proto_.failure_detection, [this, id] {
    for (auto& cta : ctas_) {
      if (cta->alive() && owns_region(cta->region())) {
        cta->on_cpf_failure(id);
      }
    }
  });
}

TableBytes System::table_bytes() const {
  TableBytes out;
  out.frontend = frontend_->table_bytes();
  for (std::uint32_t r = 0; r < ctas_.size(); ++r) {
    if (!owns_region(r)) continue;
    out.cta += ctas_[r]->table_bytes();
    out.upf += upfs_[r]->table_bytes();
  }
  for (const auto& cpf : cpfs_) {
    if (owns_region(cpf->region())) out.cpf += cpf->table_bytes();
  }
  return out;
}

void System::sample_log_sizes() {
  std::size_t total = 0;
  for (const auto& cta : ctas_) {
    if (owns_region(cta->region())) total += cta->log_bytes();
  }
  metrics_->cta_log_peak_bytes =
      std::max(metrics_->cta_log_peak_bytes, total);
}

void System::arm_telemetry(SimTime window, SimTime until) {
  assert(window.ns() > 0);
  assert(!telemetry_armed() && "telemetry armed twice");
  telemetry_window_ = window;
  telem_prev_ = TelemSnap{};
  telem_prev_.regions.resize(ctas_.size());
  // The ticks are one event stream on this shard's loop: every shard
  // plans the identical sequence, so telemetry never depends on
  // worker-thread interleaving.
  obs::PeriodicSampler::schedule(*loop_, window, until,
                                 [this] { sample_telemetry(); });
}

namespace {

static_assert(sizeof(System::Arrival) == 24);

/// A replayed trace as an event stream: arrival k starts its procedure
/// under offset k. Only the next arrival waits in the queue and every
/// other event's sequence number lies outside the stream's block, so the
/// offset only has to rise with k.
struct ArrivalStream {
  System* system;
  std::vector<System::Arrival> arrivals;

  [[nodiscard]] std::uint64_t size() const { return arrivals.size(); }
  [[nodiscard]] SimTime when(std::uint64_t k) const { return arrivals[k].at; }
  [[nodiscard]] std::uint64_t offset(std::uint64_t k) const { return k; }
  void fire(std::uint64_t k) {
    const System::Arrival& a = arrivals[k];
    system->frontend().start_procedure(a.ue, a.type, a.target_region);
  }
};

}  // namespace

void System::replay(std::vector<Arrival> arrivals) {
  const auto earlier = [](const Arrival& a, const Arrival& b) {
    return a.at < b.at;
  };
  if (!std::is_sorted(arrivals.begin(), arrivals.end(), earlier)) {
    // Stable: equal times keep trace order.
    std::stable_sort(arrivals.begin(), arrivals.end(), earlier);
  }
  loop_->schedule_stream(ArrivalStream{this, std::move(arrivals)});
}

void System::sample_telemetry() {
  const SimTime now = loop_->now();
  const SimTime window = telemetry_window_;
  obs::Registry& reg = metrics_->registry;
  const std::string shard_label = std::to_string(shard_.shard);
  const obs::Labels by_shard{{"shard", shard_label}};

  // Per-shard per-window deltas. `delta` advances the snapshot in place.
  const auto delta = [](std::uint64_t& prev, std::uint64_t now_v) {
    const std::uint64_t d = now_v - prev;
    prev = now_v;
    return static_cast<double>(d);
  };
  reg.windowed("ts.events", window, obs::WindowAgg::kSum, by_shard)
      .record(now, delta(telem_prev_.executed, loop_->executed()));
  reg.windowed("ts.completions", window, obs::WindowAgg::kSum, by_shard)
      .record(now, delta(telem_prev_.completed,
                         metrics_->procedures_completed.value()));
  reg.windowed("ts.cross_posts", window, obs::WindowAgg::kSum, by_shard)
      .record(now, delta(telem_prev_.cross_posts,
                         metrics_->cross_shard_posts.value()));
  reg.windowed("ts.attach_sheds", window, obs::WindowAgg::kSum, by_shard)
      .record(now, delta(telem_prev_.attach_sheds,
                         metrics_->attach_sheds.value()));
  reg.windowed("ts.overload_drops", window, obs::WindowAgg::kSum, by_shard)
      .record(now, delta(telem_prev_.overload_drops,
                         metrics_->overload_drops.value()));
  reg.windowed("ts.nas_retx", window, obs::WindowAgg::kSum, by_shard)
      .record(now, delta(telem_prev_.nas_retx,
                         metrics_->nas_retransmissions.value()));
  reg.windowed("ts.retx_exhausted", window, obs::WindowAgg::kSum, by_shard)
      .record(now, delta(telem_prev_.retx_exhausted,
                         metrics_->retx_exhausted.value()));

  // Per owned region: point samples + per-class shed deltas. Shadow
  // regions are skipped so each label set stays owned by one shard.
  static constexpr std::array<const char*, sim::kJobClasses> kClassNames{
      "control", "handover", "service", "attach"};
  for (std::size_t r = 0; r < ctas_.size(); ++r) {
    if (!owns_region(static_cast<std::uint32_t>(r))) continue;
    RegionTelemSnap& snap = telem_prev_.regions[r];
    const obs::Labels by_region{{"region", std::to_string(r)}};
    reg.windowed("ts.cta_queue_depth", window, obs::WindowAgg::kLast,
                 by_region)
        .record(now, static_cast<double>(ctas_[r]->pool_depth()));
    // Busy fraction of this window: service-time delta over core-time.
    const std::int64_t cta_busy = ctas_[r]->pool_busy_time().ns();
    const double cta_frac =
        static_cast<double>(cta_busy - snap.cta_busy_ns) /
        (static_cast<double>(window.ns()) * ctas_[r]->pool_cores());
    snap.cta_busy_ns = cta_busy;
    reg.windowed("ts.cta_busy_frac", window, obs::WindowAgg::kLast, by_region)
        .record(now, cta_frac);

    std::size_t cpf_depth = 0;
    std::int64_t cpf_busy = 0;
    std::int64_t cpf_core_ns = 0;
    std::array<std::uint64_t, sim::kJobClasses> drops{};
    for (const auto& cpf : cpfs_) {
      if (cpf->region() != r) continue;
      cpf_depth += cpf->request_depth();
      cpf_busy += cpf->request_busy_time().ns();
      cpf_core_ns += window.ns() * cpf->request_cores();
      for (std::size_t cls = 0; cls < sim::kJobClasses; ++cls) {
        drops[cls] += cpf->request_drops(static_cast<sim::JobClass>(cls));
      }
    }
    for (std::size_t cls = 0; cls < sim::kJobClasses; ++cls) {
      drops[cls] += ctas_[r]->pool_drops(static_cast<sim::JobClass>(cls));
    }
    reg.windowed("ts.cpf_req_depth", window, obs::WindowAgg::kLast, by_region)
        .record(now, static_cast<double>(cpf_depth));
    const double cpf_frac =
        cpf_core_ns > 0 ? static_cast<double>(cpf_busy - snap.cpf_busy_ns) /
                              static_cast<double>(cpf_core_ns)
                        : 0.0;
    snap.cpf_busy_ns = cpf_busy;
    reg.windowed("ts.cpf_busy_frac", window, obs::WindowAgg::kLast, by_region)
        .record(now, cpf_frac);
    for (std::size_t cls = 0; cls < sim::kJobClasses; ++cls) {
      const obs::Labels by_class{{"region", std::to_string(r)},
                                 {"class", kClassNames[cls]}};
      reg.windowed("ts.shed", window, obs::WindowAgg::kSum, by_class)
          .record(now, delta(snap.drops[cls], drops[cls]));
    }
  }
}

}  // namespace neutrino::core
