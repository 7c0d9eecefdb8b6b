// Trace-driven UE + BS emulator: drives control procedures, measures PCT,
// tracks watched UEs' data-path outages, and asserts Read-your-Writes on
// every response.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "core/system.hpp"

namespace neutrino::core {

Frontend::Frontend(System& system) : system_(&system) {}

void Frontend::start_procedure(UeId ue, ProcedureType type,
                               std::uint32_t target_region) {
  auto [it, inserted] = ues_.try_emplace(ue);
  UeCtx& ctx = it->second;
  if (inserted) {
    // Fresh UE: home it deterministically across regions.
    ctx.region = static_cast<std::uint32_t>(
        ue.value() % static_cast<std::uint64_t>(
                         system_->topo().total_regions()));
    ctx.prev_region = ctx.region;
  }
  if (ctx.in_flight) return;  // one control procedure at a time per UE
  ctx.in_flight = true;
  ctx.proc_type = type;
  ctx.reported_type = type;
  ctx.proc_seq = ctx.next_proc_seq++;
  ctx.start_time = system_->loop().now();
  ctx.under_failure = false;
  ctx.ho_target = target_region;
  ctx.retx_attempt = 0;  // fresh procedure, fresh NAS timers
  ++system_->metrics().procedures_started;
  if (obs::ProcTracer* tr = system_->tracer()) {
    tr->begin(ue, ctx.proc_seq, type, ctx.start_time);
  }

  switch (type) {
    case ProcedureType::kAttach:
    case ProcedureType::kReattach:
      ctx.awaiting = system_->policy().dpcm_device_state
                         ? MsgKind::kAttachAccept
                         : MsgKind::kAuthRequest;
      begin_outage(ue);
      send_uplink(ctx, ue, MsgKind::kAttachRequest);
      break;
    case ProcedureType::kServiceRequest:
      ctx.awaiting = MsgKind::kServiceAccept;
      send_uplink(ctx, ue, MsgKind::kServiceRequest);
      break;
    case ProcedureType::kHandover: {
      ctx.awaiting = MsgKind::kHandoverCommand;
      send_uplink(ctx, ue, MsgKind::kHandoverRequired);
      // The UE is leaving the source cell's coverage: if the control plane
      // has not commanded the handover within the grace window, the radio
      // link breaks and the outage starts early.
      const std::uint64_t seq = ctx.proc_seq;
      system_->loop().schedule_after(
          system_->proto().ho_coverage_grace, [this, ue, seq] {
            const auto it = ues_.find(ue);
            if (it == ues_.end()) return;
            const UeCtx& late = it->second;
            if (late.in_flight && late.proc_seq == seq) begin_outage(ue);
          });
      break;
    }
    case ProcedureType::kIntraHandover:
      ctx.awaiting = MsgKind::kHandoverComplete;
      begin_outage(ue);
      send_uplink(ctx, ue, MsgKind::kHandoverRequired);
      break;
    case ProcedureType::kDetach:
      ctx.awaiting = MsgKind::kDetachAccept;
      send_uplink(ctx, ue, MsgKind::kDetachRequest);
      break;
    case ProcedureType::kTau:
      ctx.awaiting = MsgKind::kTauAccept;
      send_uplink(ctx, ue, MsgKind::kTrackingAreaUpdate);
      break;
  }
}

void Frontend::idle_move(UeId ue, std::uint32_t new_region) {
  const auto it = ues_.find(ue);
  if (it == ues_.end()) return;
  it->second.prev_region = it->second.region;
  it->second.region = new_region;
}

void Frontend::send_uplink(UeCtx& ctx, UeId ue, MsgKind kind) {
  std::uint32_t via_region =
      kind == MsgKind::kHandoverNotify ? ctx.ho_target : ctx.region;
  if (!system_->cta_alive(via_region)) {
    // Failure scenario 4: the CTA is gone — re-attach through another CTA
    // (the sibling region's) and rebuild state there (§4.2.5).
    const auto regions =
        static_cast<std::uint32_t>(system_->topo().total_regions());
    ctx.region = (via_region + 1) % regions;
    ctx.under_failure = true;
    begin_reattach(ctx, ue);
    return;
  }
  Msg msg;
  msg.kind = kind;
  msg.ue = ue;
  msg.proc_type = ctx.proc_type;
  msg.proc_seq = ctx.proc_seq;
  msg.region = via_region;
  msg.target_region = ctx.ho_target;
  msg.prev_region = ctx.prev_region;
  msg.expected_proc = ctx.last_completed_seq;
  system_->ue_to_cta(via_region, std::move(msg));
  // A different uplink kind means the flow advanced: its retransmission
  // ladder starts over. A re-send of the same kind keeps climbing it.
  if (kind != ctx.last_uplink) ctx.retx_attempt = 0;
  ctx.last_uplink = kind;
  arm_retx(ctx, ue, kind);
}

void Frontend::arm_retx(UeCtx& ctx, UeId ue, MsgKind kind) {
  const SimTime base = system_->proto().nas_retx_timeout;
  if (base == SimTime{}) return;
  // Procedure-final uplinks (the CTA's fire-and-forget set) produce no
  // response a timer could wait for.
  if (kind == MsgKind::kAttachComplete || kind == MsgKind::kIcsResponse) {
    return;
  }
  const std::uint64_t seq = ctx.proc_seq;
  const std::uint32_t attempt = ctx.retx_attempt;
  // Exponential backoff, clamped well below the shift width.
  const SimTime delay = base * (std::int64_t{1} << std::min(attempt, 20u));
  system_->loop().schedule_after(delay, [this, ue, seq, kind, attempt] {
    const auto it = ues_.find(ue);
    if (it == ues_.end()) return;
    UeCtx& ctx = it->second;
    // Stale timer: the procedure completed or was superseded, the flow
    // advanced past this uplink, or a newer (re-)transmission took over.
    if (!ctx.in_flight || ctx.proc_seq != seq || ctx.last_uplink != kind ||
        ctx.retx_attempt != attempt) {
      return;
    }
    if (attempt >= static_cast<std::uint32_t>(
                       system_->proto().nas_retx_budget)) {
      // NAS retry budget exhausted: like an expired 3GPP registration
      // timer, the UE abandons the exchange and rebuilds state from
      // scratch — liveness over latency.
      ++system_->metrics().retx_exhausted;
      if (obs::FlightRecorder* fl = system_->flight()) {
        fl->record(system_->loop().now(),
                   obs::FlightRecorder::Kind::kRetxExhausted,
                   static_cast<std::int64_t>(ue.value()), attempt);
      }
      begin_reattach(ctx, ue);
      return;
    }
    ++ctx.retx_attempt;
    ++system_->metrics().nas_retransmissions;
    if (obs::FlightRecorder* fl = system_->flight()) {
      fl->record(system_->loop().now(), obs::FlightRecorder::Kind::kNasRetx,
                 static_cast<std::int64_t>(ue.value()), attempt + 1);
    }
    send_uplink(ctx, ue, kind);
  });
}

void Frontend::deliver(Msg msg) {
  const auto it = ues_.find(msg.ue);
  if (it == ues_.end()) return;
  UeCtx& ctx = it->second;

  if (msg.kind == MsgKind::kPaging) {
    // Unsolicited: downlink data is waiting. An idle attached UE answers
    // with a service request (the paging response).
    if (!ctx.in_flight && ctx.attached) {
      start_procedure(msg.ue, ProcedureType::kServiceRequest);
      ues_[msg.ue].paging_response = true;
    }
    return;
  }

  if (!ctx.in_flight || msg.proc_seq != ctx.proc_seq) return;  // stale

  // Responses regenerated from the CTA's replayed log (or recovery
  // resends) mean this procedure lived through a failure: its PCT belongs
  // in the under-failure distribution (§6.4).
  if (msg.is_replay) ctx.under_failure = true;

  if (msg.kind == MsgKind::kReattachCommand) {
    // Only recovery-origin Re-Attach commands mark the procedure as
    // failure-affected; a Re-Attach demanded by a CPF that simply has no
    // state for us (post-crash steady state) is ordinary signalling.
    if (msg.is_replay) ctx.under_failure = true;
    ++system_->metrics().reattaches;
    begin_reattach(ctx, msg.ue);
    return;
  }
  // A 4G-style relocation re-establishes NAS security on the target side
  // mid-handover; accept it even though the UE ultimately awaits the
  // handover completion.
  const bool ho_security = ctx.proc_type == ProcedureType::kHandover &&
                           msg.kind == MsgKind::kSecurityModeCommand;
  if (msg.kind != ctx.awaiting && !ho_security) return;  // replay duplicate

  switch (msg.kind) {
    case MsgKind::kAuthRequest:
      ctx.awaiting = MsgKind::kSecurityModeCommand;
      send_uplink(ctx, msg.ue, MsgKind::kAuthResponse);
      break;
    case MsgKind::kSecurityModeCommand:
      if (!ho_security) ctx.awaiting = MsgKind::kAttachAccept;
      send_uplink(ctx, msg.ue, MsgKind::kSecurityModeComplete);
      break;
    case MsgKind::kAttachAccept:
      check_ryw(ctx, msg);
      ctx.attached = true;
      end_outage(msg.ue);
      // The UE considers the attach done once accepted; the completion
      // message is fire-and-forget from its perspective.
      send_uplink(ctx, msg.ue, MsgKind::kAttachComplete);
      complete(ctx, msg.ue, msg);
      break;
    case MsgKind::kServiceAccept:
      check_ryw(ctx, msg);
      send_uplink(ctx, msg.ue, MsgKind::kIcsResponse);
      complete(ctx, msg.ue, msg);
      break;
    case MsgKind::kHandoverCommand:
      // The UE detaches from the source cell: the data path is down until
      // the target side switches the bearer (§6.6's outage window).
      begin_outage(msg.ue);
      ctx.awaiting = MsgKind::kHandoverComplete;
      // Switch cells before notifying: the notify must name the region the
      // UE is leaving (prev_region drives the target's replica lookup).
      ctx.prev_region = ctx.region;
      ctx.region = ctx.ho_target;
      send_uplink(ctx, msg.ue, MsgKind::kHandoverNotify);
      break;
    case MsgKind::kHandoverComplete:
      check_ryw(ctx, msg);
      end_outage(msg.ue);
      complete(ctx, msg.ue, msg);
      break;
    case MsgKind::kDetachAccept:
      check_ryw(ctx, msg);
      ctx.attached = false;
      complete(ctx, msg.ue, msg);
      break;
    case MsgKind::kTauAccept:
      check_ryw(ctx, msg);
      complete(ctx, msg.ue, msg);
      break;
    default:
      break;
  }
}

void Frontend::complete(UeCtx& ctx, UeId ue, const Msg& /*final_msg*/) {
  const double pct_ms =
      (system_->loop().now() - ctx.start_time).ms();
  Metrics& metrics = system_->metrics();
  metrics.pct_for(ctx.reported_type).add(pct_ms);
  if (ctx.under_failure) {
    metrics.pct_failure_for(ctx.reported_type).add(pct_ms);
  }
  ++metrics.procedures_completed;
  // Per-type completion counter; the handle is looked up once per type and
  // cached — this is the hot path.
  const auto type_idx = static_cast<std::size_t>(ctx.reported_type);
  if (completion_counters_[type_idx] == nullptr) {
    completion_counters_[type_idx] = &metrics.registry.counter(
        "frontend.completions",
        {{"proc", std::string{to_string(ctx.reported_type)}}});
  }
  ++*completion_counters_[type_idx];
  if (obs::SloTracker* slo = metrics.slo()) {
    slo->record(system_->loop().now(), type_idx, pct_ms);
  }
  if (obs::ProcTracer* tr = system_->tracer()) {
    if (ctx.under_failure) tr->mark_under_failure(ue);
    tr->end(ue, ctx.proc_seq, system_->loop().now());
  }
  if (ctx.paging_response) {
    ++metrics.downlink_delivered;  // the paged data can now flow
    ctx.paging_response = false;
  }
  ctx.in_flight = false;
  ctx.last_completed_seq = ctx.proc_seq;
  ++ctx.completed_procs;
  if (InvariantObserver* iobs = system_->invariant_observer()) {
    iobs->on_procedure_complete(ue, ctx.proc_seq, ctx.proc_type);
  }
}

void Frontend::begin_reattach(UeCtx& ctx, UeId ue) {
  // The interrupted procedure never completes; a Re-Attach (tracked under
  // the original procedure type, with the original start time, per §6.4's
  // PCT-under-failure accounting) rebuilds consistent state.
  ctx.attached = false;
  ctx.proc_type = ProcedureType::kReattach;
  ctx.proc_seq = ctx.next_proc_seq++;
  ctx.retx_attempt = 0;  // fresh procedure, fresh NAS timers
  if (obs::FlightRecorder* fl = system_->flight()) {
    fl->record(system_->loop().now(), obs::FlightRecorder::Kind::kReattach,
               static_cast<std::int64_t>(ue.value()));
  }
  if (obs::ProcTracer* tr = system_->tracer()) {
    // The span keeps covering the procedure under its recovery seq.
    tr->annex(ue, ctx.proc_seq);
  }
  ctx.awaiting = system_->policy().dpcm_device_state
                     ? MsgKind::kAttachAccept
                     : MsgKind::kAuthRequest;
  begin_outage(ue);
  send_uplink(ctx, ue, MsgKind::kAttachRequest);
}

void Frontend::begin_outage(UeId ue) {
  OutageLog* log = outage_logs_.lookup(ue);
  if (log == nullptr || log->open) return;
  log->open = true;
  log->start = system_->loop().now();
}

void Frontend::end_outage(UeId ue) {
  OutageLog* log = outage_logs_.lookup(ue);
  if (log == nullptr || !log->open) return;
  log->open = false;
  log->closed.push_back({log->start, system_->loop().now()});
}

void Frontend::check_ryw(UeCtx& ctx, const Msg& msg) {
  if (InvariantObserver* iobs = system_->invariant_observer()) {
    // Fires before the attach-type filter and before complete() advances
    // the watermark: the checker applies its own RYW rule to its own
    // independently-tracked last-completed value.
    iobs->on_final_response(msg.ue, ctx.proc_type, msg.served_proc);
  }
  // Read-your-Writes (§4.2.1): the state a CPF serves must reflect every
  // procedure this UE has completed. Attach and Re-Attach are themselves
  // the baseline-resetting writes (they rebuild state from scratch), so
  // only read-carrying procedures are checked.
  if (ctx.proc_type == ProcedureType::kAttach ||
      ctx.proc_type == ProcedureType::kReattach) {
    return;
  }
  if (msg.served_proc != ctx.last_completed_seq) {
    ++system_->metrics().ryw_violations;
    if (obs::ProcTracer* tr = system_->tracer()) {
      tr->mark_violation(msg.ue);
    }
  }
}

void Frontend::preattach_context(UeId ue, std::uint32_t region) {
  UeCtx& ctx = ues_[ue];
  ctx.region = region;
  ctx.prev_region = region;
  ctx.attached = true;
  ctx.completed_procs = 1;
  ctx.last_completed_seq = 1;
  ctx.next_proc_seq = 2;
}

StateRef Frontend::make_preattached_state(UeId ue, std::uint32_t region) {
  UeState state;
  state.ue = ue;
  state.attached = true;
  state.session_active = true;
  state.serving_region = region;
  state.upf = UpfId(region);
  state.last_completed_proc = 1;
  return StateRef(state);
}

void Frontend::preattach(UeId ue, std::uint32_t region) {
  preattach_context(ue, region);
  const StateRef state = make_preattached_state(ue, region);
  system_->cpf(system_->primary_cpf_for(ue, region)).preinstall(state);
  for (const CpfId b : system_->backups_for(ue, region)) {
    system_->cpf(b).preinstall(state);
  }
  system_->upf(region).preinstall(ue);
}

void Frontend::on_cta_failure(std::uint32_t region) {
  const auto regions =
      static_cast<std::uint32_t>(system_->topo().total_regions());
  for (auto& [ue, ctx] : ues_) {
    if (ctx.region != region || !ctx.in_flight) continue;
    ctx.region = (region + 1) % regions;
    ctx.under_failure = true;
    ++system_->metrics().reattaches;
    begin_reattach(ctx, ue);
  }
}

std::uint64_t Frontend::completed(UeId ue) const {
  const auto it = ues_.find(ue);
  return it == ues_.end() ? 0 : it->second.completed_procs;
}

bool Frontend::is_attached(UeId ue) const {
  const auto it = ues_.find(ue);
  return it != ues_.end() && it->second.attached;
}

bool Frontend::in_flight(UeId ue) const {
  const auto it = ues_.find(ue);
  return it != ues_.end() && it->second.in_flight;
}

std::uint32_t Frontend::region_of(UeId ue) const {
  const auto it = ues_.find(ue);
  return it == ues_.end() ? 0 : it->second.region;
}

void Frontend::watch_outages(UeId ue) { outage_logs_.try_emplace(ue); }

const std::vector<Frontend::Outage>& Frontend::outages(UeId ue) const {
  const OutageLog* log = outage_logs_.lookup(ue);
  if (log == nullptr) [[unlikely]] {
    std::fprintf(stderr,
                 "Frontend: outages() of UE %" PRIu64
                 ", which nobody watched: call watch_outages() before its "
                 "first procedure\n",
                 ue.value());
    std::abort();
  }
  return log->closed;
}

}  // namespace neutrino::core
