// Control Plane Function: UE state store, procedure state machines,
// per-procedure checkpointing (§4.2.2) and replica-side protocol (§4.2.4).
#include "core/system.hpp"

#include <algorithm>

namespace neutrino::core {

Cpf::Cpf(System& system, CpfId id, std::uint32_t region)
    : system_(&system),
      id_(id),
      region_(region),
      request_pool_(system.loop(), system.topo().cpf_request_cores),
      sync_pool_(system.loop(), system.topo().cpf_sync_cores) {
  if (const std::size_t cap = system.proto().cpf_queue_capacity; cap > 0) {
    request_pool_.set_capacity(
        cap, static_cast<std::size_t>(
                 static_cast<double>(cap) *
                 system.proto().attach_admission_fraction));
  }
}

void Cpf::deliver(Msg msg) {
  SimTime cost = system_->costs().processing_time(
      system_->policy().wire_format, msg.kind);
  // SkyCore-style per-message replication locks and serializes the UE
  // state synchronously with every control message — on the request core,
  // which is exactly the overhead Fig. 15 charges it for.
  SimTime serialize;  // per-message sync share, traced as its own hop
  if (system_->policy().sync_mode == SyncMode::kPerMessage &&
      is_ue_control_message(msg.kind)) {
    serialize = system_->costs().state_serialize_time(
        system_->policy().wire_format);
    cost += serialize;
  }
  const auto trace_pool = [&](const sim::ServerPool& pool) {
    obs::ProcTracer* tr = system_->tracer();
    if (!tr) return;
    const SimTime now = system_->loop().now();
    const SimTime queued = pool.backlog();
    tr->hop(msg, obs::HopClass::kQueueing, "cpf", id_.value(), now,
            now + queued);
    tr->hop(msg, obs::HopClass::kService, "cpf", id_.value(), now + queued,
            now + queued + (cost - serialize));
    if (serialize > SimTime{}) {
      tr->hop(msg, obs::HopClass::kSerialization, "cpf", id_.value(),
              now + queued + (cost - serialize), now + queued + cost);
    }
  };
  switch (msg.kind) {
    // Replication traffic runs on the dedicated sync core (§5: "one for
    // processing requests and the second one for state synchronization"),
    // keeping it off the critical path.
    case MsgKind::kStateCheckpoint:
    case MsgKind::kOutdatedNotify:
      trace_pool(sync_pool_);
      sync_pool_.submit(cost, [this, m = std::move(msg)]() mutable {
        handle_replication(m);
      });
      return;
    case MsgKind::kStateFetch:
      // A fetch serves a live procedure (FastHandover/TAU arrival) — it
      // belongs on the request core, not behind bulk checkpoint traffic.
      trace_pool(request_pool_);
      request_pool_.submit(cost, [this, m = std::move(msg)]() mutable {
        handle_replication(m);
      });
      return;
    default:
      // Bounded request queue (DESIGN.md §13): only UE-origin ingress is
      // sheddable — UPF responses, relocation traffic and fetch replies
      // complete procedures the system already admitted and paid for.
      if (is_ue_control_message(msg.kind) &&
          !system_->admit(request_pool_, msg, region_, "cpf")) {
        return;
      }
      trace_pool(request_pool_);
      request_pool_.submit(cost, [this, m = std::move(msg)]() mutable {
        handle(std::move(m));
      });
      return;
  }
}

void Cpf::handle(Msg msg) {
  if (!alive_) return;
  switch (msg.kind) {
    case MsgKind::kCreateSessionResponse:
    case MsgKind::kModifyBearerResponse:
    case MsgKind::kDeleteSessionResponse:
      handle_upf_response(msg);
      break;
    case MsgKind::kDownlinkDataNotification:
      handle_downlink_notification(msg);
      break;
    case MsgKind::kHandoverRequest:
      handle_handover_target(msg);
      break;
    case MsgKind::kHandoverRequestAck:
      handle_handover_source(msg);
      break;
    case MsgKind::kStateFetchResponse:
      handle_replication(msg);
      break;
    default:
      handle_ue_message(msg);
      break;
  }
  // Per-message mode broadcasts the freshly-locked state after every
  // control message (the serialization cost was charged in deliver()).
  if (system_->policy().sync_mode == SyncMode::kPerMessage &&
      is_ue_control_message(msg.kind) && store_.contains(msg.ue)) {
    send_checkpoint(msg.ue);
  }
}

void Cpf::handle_ue_message(Msg& msg) {
  ProcCtx& ctx = procs_[msg.ue];
  if (msg.proc_seq != ctx.proc_seq) {
    ctx = ProcCtx{};
    ctx.type = msg.proc_type;
    ctx.proc_seq = msg.proc_seq;
    ctx.source_region = msg.region;
    ctx.target_region = msg.target_region;
  }
  ctx.last_lclock = std::max(ctx.last_lclock, msg.lclock);

  // Monotonicity guard: a message whose procedure is already reflected in
  // the stored state is a log replay or a late duplicate; re-executing it
  // would regress the state (and with it, Read-your-Writes).
  if (const auto it = store_.find(msg.ue);
      it != store_.end() && it->second.state &&
      it->second.state->last_completed_proc >= msg.proc_seq) {
    return;
  }

  const bool starts_fresh_state =
      msg.kind == MsgKind::kAttachRequest ||  // attach rebuilds from scratch
      msg.kind == MsgKind::kHandoverNotify || // arrival fetches its own state
      msg.kind == MsgKind::kTrackingAreaUpdate;  // idle arrival: ditto
  if (!starts_fresh_state) {
    // §4.2.4(3): a request for a UE without up-to-date state forces
    // Re-Attach — never serve stale data (RYW).
    const auto it = store_.find(msg.ue);
    if (it == store_.end() || !it->second.up_to_date) {
      ask_reattach(msg);
      return;
    }
  }

  switch (ctx.type) {
    case ProcedureType::kAttach:
    case ProcedureType::kReattach:
      handle_attach_flow(msg);
      break;
    case ProcedureType::kServiceRequest:
      handle_service_flow(msg);
      break;
    case ProcedureType::kHandover:
    case ProcedureType::kIntraHandover:
      handle_handover_source(msg);
      break;
    case ProcedureType::kDetach:
      handle_detach_flow(msg);
      break;
    case ProcedureType::kTau:
      handle_tau(msg);
      break;
  }
}

void Cpf::handle_detach_flow(Msg& msg) {
  switch (msg.kind) {
    case MsgKind::kDetachRequest:
      if (!context_matches(msg)) {
        // Even a detach must not run on a stale context (the session
        // endpoints to tear down would be wrong).
        ask_reattach(msg);
        return;
      }
      send_to_upf(msg, MsgKind::kDeleteSession);
      break;
    default:
      break;
  }
}

void Cpf::handle_tau(Msg& msg) {
  if (msg.kind != MsgKind::kTrackingAreaUpdate) return;
  // Idle-mode mobility: the UE silently moved here. With proactive
  // geo-replication the new region's primary often already holds the
  // context (same mechanism as FastHandover, §4.3).
  if (context_matches(msg)) {
    UeState& state = mutable_state(msg.ue);
    state.serving_region = region_;
    state.tracking_area = static_cast<std::uint16_t>(region_);
    reply_to_ue(msg, MsgKind::kTauAccept);
    state.last_completed_proc = msg.proc_seq;
    state.last_lclock = msg.lclock;
    complete_procedure(msg);
    return;
  }
  // Fetch from a replica of the UE's previous placement; Re-Attach if the
  // state is unreachable (§4.2.4 rule 3).
  CpfId holder = id_;
  for (const CpfId b : system_->backups_for(msg.ue, msg.prev_region)) {
    if (b != id_ && system_->cpf_alive(b)) {
      holder = b;
      break;
    }
  }
  if (holder == id_) {
    ask_reattach(msg);
    return;
  }
  ++system_->metrics().state_fetches;
  park_pending_fetch(msg);
  Msg fetch = msg;
  fetch.kind = MsgKind::kStateFetch;
  fetch.state.reset();
  fetch.src_cpf = id_;
  system_->cpf_to_cpf(id_, holder, std::move(fetch));
}

void Cpf::handle_downlink_notification(Msg& msg) {
  // Fig. 2: downlink data for an idle UE. Pageable only when this CPF
  // holds a current, attached context for it.
  const auto it = store_.find(msg.ue);
  if (it == store_.end() || !it->second.up_to_date || !it->second.state ||
      !it->second.state->attached) {
    // The §3.1 disruption: the core believes the UE is not attached and
    // cannot deliver. Connectivity returns only when the UE next contacts
    // the network (Re-Attach / location update).
    ++system_->metrics().downlink_undeliverable;
    return;
  }
  ++system_->metrics().pagings_sent;
  Msg page = msg;
  page.kind = MsgKind::kPaging;
  page.src_cpf = id_;
  page.served_proc = it->second.state->last_completed_proc;
  system_->cpf_to_cta(id_, msg.region, std::move(page));
}

void Cpf::handle_attach_flow(Msg& msg) {
  switch (msg.kind) {
    case MsgKind::kAttachRequest: {
      auto fresh = std::make_shared<UeState>();
      fresh->ue = msg.ue;
      fresh->imsi = 410'010'000'000'000ULL + msg.ue.value();
      fresh->m_tmsi = static_cast<std::uint32_t>(msg.ue.value());
      fresh->serving_region = region_;
      fresh->last_completed_proc = 0;
      store_[msg.ue] = Entry{std::move(fresh), true};
      if (system_->policy().dpcm_device_state) {
        // DPCM [61]: the device supplies cached security state, so the
        // authentication and security-mode round trips are elided.
        send_to_upf(msg, MsgKind::kCreateSession);
      } else {
        reply_to_ue(msg, MsgKind::kAuthRequest);
      }
      break;
    }
    case MsgKind::kAuthResponse:
      reply_to_ue(msg, MsgKind::kSecurityModeCommand);
      break;
    case MsgKind::kSecurityModeComplete:
      send_to_upf(msg, MsgKind::kCreateSession);
      break;
    case MsgKind::kAttachComplete: {
      UeState& state = mutable_state(msg.ue);
      state.attached = true;
      state.last_completed_proc = msg.proc_seq;
      state.last_lclock = msg.lclock;
      complete_procedure(msg);
      break;
    }
    default:
      break;  // stray/duplicate message for this flow
  }
}

void Cpf::handle_service_flow(Msg& msg) {
  switch (msg.kind) {
    case MsgKind::kServiceRequest:
      if (!context_matches(msg)) {
        ask_reattach(msg);
        return;
      }
      if (system_->policy().dpcm_device_state) {
        // DPCM [61] executes control operations in parallel using the
        // device-side state: accept immediately while the bearer update
        // runs concurrently.
        reply_to_ue(msg, MsgKind::kServiceAccept);
      }
      send_to_upf(msg, MsgKind::kModifyBearer);
      break;
    case MsgKind::kIcsResponse: {
      UeState& state = mutable_state(msg.ue);
      state.last_completed_proc = msg.proc_seq;
      state.last_lclock = msg.lclock;
      complete_procedure(msg);
      break;
    }
    default:
      break;
  }
}

void Cpf::handle_handover_source(Msg& msg) {
  ProcCtx& ctx = procs_[msg.ue];
  switch (msg.kind) {
    case MsgKind::kHandoverRequired: {
      if (!context_matches(msg)) {
        ask_reattach(msg);
        return;
      }
      if (ctx.type == ProcedureType::kIntraHandover) {
        // BS change within the region: no CPF change, just a path switch.
        UeState& state = mutable_state(msg.ue);
        state.serving_bs = BsId(msg.target_region);
        send_to_upf(msg, MsgKind::kModifyBearer);
        return;
      }
      if (system_->policy().handover == HandoverMode::kMigrate) {
        // 4G/LTE-style relocation: the full UE context must reach the
        // target and a session must exist there *before* the UE can be
        // commanded to move. Serialize on the critical path and ship it.
        const CpfId target =
            system_->primary_cpf_for(msg.ue, msg.target_region);
        Msg request = msg;
        request.kind = MsgKind::kHandoverRequest;
        request.src_cpf = id_;
        request.served_proc = store_[msg.ue].state->last_completed_proc;
        request.state = store_[msg.ue].state;
        ++system_->metrics().migrations;
        const SimTime serialize = system_->costs().state_serialize_time(
            system_->policy().wire_format);
        if (obs::ProcTracer* tr = system_->tracer()) {
          const SimTime now = system_->loop().now();
          const SimTime queued = request_pool_.backlog();
          tr->hop(request, obs::HopClass::kSerialization, "cpf", id_.value(),
                  now + queued, now + queued + serialize);
        }
        request_pool_.submit(
            serialize, [this, target, m = std::move(request)]() mutable {
              system_->cpf_to_cpf(id_, target, std::move(m));
            });
      } else {
        // FastHandover (§4.3): the state already lives on a level-2
        // replica, so no pre-handover exchange with the target is needed
        // at all — command the move immediately. This elides the WAN
        // round trip that dominates 4G inter-CPF handovers.
        reply_to_ue(msg, MsgKind::kHandoverCommand);
      }
      break;
    }
    case MsgKind::kHandoverRequestAck:
      // Relocation finished at the target: the UE may move now.
      reply_to_ue(msg, MsgKind::kHandoverCommand);
      break;
    case MsgKind::kHandoverNotify:
      handle_handover_notify(msg);
      break;
    case MsgKind::kSecurityModeComplete:
      // Relocation epilogue: NAS security re-established on the target;
      // now switch the data path.
      send_to_upf(msg, MsgKind::kModifyBearer);
      break;
    default:
      break;
  }
}

void Cpf::handle_handover_notify(Msg& msg) {
  // Runs at the target CPF when the UE arrives on its new cell.
  ProcCtx& ctx = procs_[msg.ue];
  ctx.target_region = msg.target_region;
  if (system_->policy().handover == HandoverMode::kMigrate) {
    // Relocated context: re-establish NAS security before the path switch
    // (the target core has never talked to this UE).
    reply_to_ue(msg, MsgKind::kSecurityModeCommand);
    return;
  }
  // Proactive mode: serve from the local replica when its version matches
  // the UE's context exactly.
  if (context_matches(msg)) {
    ++system_->metrics().fast_handovers;
    send_to_upf(msg, MsgKind::kModifyBearer);
    return;
  }
  // Slow path: fetch from a replica of the UE's *source* region placement,
  // falling back to the source-side serving CPF (alive during a handover).
  CpfId holder = id_;
  for (const CpfId b : system_->backups_for(msg.ue, msg.prev_region)) {
    if (b != id_ && system_->cpf_alive(b)) {
      holder = b;
      break;
    }
  }
  if (holder == id_) {
    const CpfId source = system_->primary_cpf_for(msg.ue, msg.prev_region);
    if (source != id_ && system_->cpf_alive(source)) holder = source;
  }
  if (holder == id_) {
    // No live replica to ask: the state is unreachable.
    ask_reattach(msg);
    return;
  }
  ++system_->metrics().state_fetches;
  park_pending_fetch(msg);
  Msg fetch = msg;
  fetch.kind = MsgKind::kStateFetch;
  fetch.state.reset();
  fetch.src_cpf = id_;
  system_->cpf_to_cpf(id_, holder, std::move(fetch));
}

void Cpf::handle_handover_target(Msg& msg) {
  // Runs at the target CPF on kHandoverRequest (4G-style relocation: the
  // migrated context arrives with the request; a local data session must
  // be created before the source may command the UE over).
  ProcCtx& ctx = procs_[msg.ue];
  ctx.type = ProcedureType::kHandover;
  ctx.proc_seq = msg.proc_seq;
  ctx.source_region = msg.region;
  ctx.target_region = msg.target_region;
  ctx.last_lclock = std::max(ctx.last_lclock, msg.lclock);
  ctx.source_cpf = msg.src_cpf;

  if (!msg.state) {
    return;  // malformed relocation (proactive mode never sends these)
  }
  store_[msg.ue] = Entry{msg.state, true};
  ctx.relocating = true;
  send_to_upf(msg, MsgKind::kCreateSession);
}

void Cpf::handle_upf_response(Msg& msg) {
  const auto proc_it = procs_.find(msg.ue);
  if (proc_it == procs_.end()) return;  // procedure superseded
  ProcCtx& ctx = proc_it->second;
  if (ctx.proc_seq != msg.proc_seq) return;

  switch (ctx.type) {
    case ProcedureType::kAttach:
    case ProcedureType::kReattach: {
      UeState& state = mutable_state(msg.ue);
      state.session_active = true;
      state.upf = UpfId(region_);
      reply_to_ue(msg, MsgKind::kAttachAccept);
      break;
    }
    case ProcedureType::kServiceRequest:
      // Under DPCM the accept already went out in parallel (§6.2).
      if (!system_->policy().dpcm_device_state) {
        reply_to_ue(msg, MsgKind::kServiceAccept);
      }
      break;
    case ProcedureType::kDetach: {
      // Session torn down at the UPF: tombstone the context so replicas
      // learn the UE is gone, then confirm to the UE.
      UeState& state = mutable_state(msg.ue);
      reply_to_ue(msg, MsgKind::kDetachAccept);
      state.attached = false;
      state.session_active = false;
      state.last_completed_proc = msg.proc_seq;
      state.last_lclock = ctx.last_lclock;
      complete_procedure(msg);
      break;
    }
    case ProcedureType::kTau:
      break;  // TAU completes without a UPF exchange
    case ProcedureType::kHandover:
      if (ctx.relocating && msg.kind == MsgKind::kCreateSessionResponse) {
        // Relocation session established: tell the source the UE may move.
        ctx.relocating = false;
        Msg ack;
        ack.kind = MsgKind::kHandoverRequestAck;
        ack.ue = msg.ue;
        ack.proc_type = ProcedureType::kHandover;
        ack.proc_seq = msg.proc_seq;
        ack.region = ctx.source_region;
        ack.target_region = ctx.target_region;
        ack.src_cpf = id_;
        system_->cpf_to_cpf(id_, ctx.source_cpf, std::move(ack));
        return;
      }
      [[fallthrough]];
    case ProcedureType::kIntraHandover: {
      UeState& state = mutable_state(msg.ue);
      reply_to_ue(msg, MsgKind::kHandoverComplete);
      state.serving_region = region_;
      state.session_active = true;
      state.last_completed_proc = msg.proc_seq;
      state.last_lclock = ctx.last_lclock;
      complete_procedure(msg);
      break;
    }
  }
}

void Cpf::handle_replication(Msg& msg) {
  switch (msg.kind) {
    case MsgKind::kStateCheckpoint: {
      Entry& entry = store_[msg.ue];
      // §4.2.4: a state update at or beyond the outdated-marker clock
      // makes the replica current again; older updates are ignored.
      if (msg.lclock >= entry.required_lclock) {
        entry.state = msg.state;
        entry.up_to_date = true;
      } else if (!entry.state ||
                 msg.state->last_lclock > entry.state->last_lclock) {
        entry.state = msg.state;  // newer data, still short of the marker
      }
      Msg ack;
      ack.kind = MsgKind::kCheckpointAck;
      ack.ue = msg.ue;
      ack.proc_seq = msg.proc_seq;
      ack.lclock = msg.lclock;
      ack.src_cpf = id_;
      ack.sender_epoch = epoch_;
      system_->cpf_to_cta(id_, msg.region, std::move(ack));
      break;
    }
    case MsgKind::kStateFetch: {
      Msg resp = msg;
      resp.kind = MsgKind::kStateFetchResponse;
      const CpfId requester = msg.src_cpf;
      resp.src_cpf = id_;
      if (const auto it = store_.find(msg.ue);
          it != store_.end() && it->second.up_to_date) {
        resp.state = it->second.state;
        resp.lclock = it->second.state->last_lclock;
      }
      system_->cpf_to_cpf(id_, requester, std::move(resp));
      break;
    }
    case MsgKind::kStateFetchResponse: {
      // Resume a parked FastHandover arrival waiting on this state (§4.3
      // slow path): the UE is on our cell; its context version must match
      // exactly or the UE has to Re-Attach.
      if (const auto pending = pending_handover_.find(msg.ue);
          pending != pending_handover_.end()) {
        Msg original = pending->second;
        // A checkpoint may have landed locally while the fetch was in
        // flight; the local copy wins if it already matches.
        if (context_matches(original)) {
          pending_handover_.erase(msg.ue);
          if (original.kind == MsgKind::kTrackingAreaUpdate) {
            handle_tau(original);
          } else {
            send_to_upf(original, MsgKind::kModifyBearer);
          }
          return;
        }
        const bool version_matches =
            msg.state &&
            msg.state->last_completed_proc == original.expected_proc;
        if (!version_matches) {
          // A lagging replica (async checkpoints under load): the serving
          // source CPF always has the current version — ask it before
          // falling back to a Re-Attach.
          const CpfId source =
              system_->primary_cpf_for(msg.ue, original.prev_region);
          if (msg.src_cpf != source && source != id_ &&
              system_->cpf_alive(source)) {
            Msg fetch = original;
            fetch.kind = MsgKind::kStateFetch;
            fetch.state.reset();
            fetch.src_cpf = id_;
            system_->cpf_to_cpf(id_, source, std::move(fetch));
            return;  // stays parked
          }
          pending_handover_.erase(msg.ue);
          ask_reattach(original);
          return;
        }
        pending_handover_.erase(msg.ue);
        store_[msg.ue] = Entry{msg.state, true};
        if (original.kind == MsgKind::kTrackingAreaUpdate) {
          handle_tau(original);  // context now matches: completes the TAU
        } else {
          send_to_upf(original, MsgKind::kModifyBearer);
        }
        return;
      }
      // §4.2.4(1c): a replica refreshing itself after an outdated marking.
      if (msg.state) {
        Entry& entry = store_[msg.ue];
        if (msg.lclock >= entry.required_lclock) {
          entry.state = msg.state;
          entry.up_to_date = true;
        }
      }
      break;
    }
    case MsgKind::kOutdatedNotify: {
      // Ignore stale markings: if this CPF is already executing a *newer*
      // procedure for the UE (it became the serving primary, e.g. through
      // a Re-Attach), its state will supersede the missed checkpoint.
      if (const auto proc = procs_.find(msg.ue);
          proc != procs_.end() && proc->second.proc_seq > msg.proc_seq) {
        break;
      }
      // Likewise if the stored state already covers the procedure whose
      // checkpoint this CPF allegedly missed (checkpoints are cumulative
      // snapshots): there is nothing outdated about it.
      if (const auto have = store_.find(msg.ue);
          have != store_.end() && have->second.state &&
          have->second.state->last_completed_proc >= msg.proc_seq) {
        break;
      }
      Entry& entry = store_[msg.ue];
      entry.up_to_date = false;
      entry.required_lclock = msg.lclock;
      // §4.2.4(1c): fetch from a CPF known to be current, if any.
      if (msg.fetch_from) {
        ++system_->metrics().state_fetches;
        Msg fetch;
        fetch.kind = MsgKind::kStateFetch;
        fetch.ue = msg.ue;
        fetch.proc_seq = msg.proc_seq;
        fetch.region = msg.region;
        fetch.src_cpf = id_;
        system_->cpf_to_cpf(id_, *msg.fetch_from, std::move(fetch));
      }
      break;
    }
    default:
      break;
  }
}

void Cpf::complete_procedure(Msg& msg) {
  procs_.erase(msg.ue);
  const UeId ue = msg.ue;
  switch (system_->policy().sync_mode) {
    case SyncMode::kPerProcedure:
      // §4.2.2: non-blocking per-procedure checkpoint on the sync core.
      sync_pool_.submit(system_->costs().state_serialize_time(
                            system_->policy().wire_format),
                        [this, ue] { send_checkpoint(ue); });
      break;
    case SyncMode::kOnIdle: {
      // SCALE (§3.1): replicas are updated only when the UE goes idle.
      // Schedule the S1 release; it is void if another procedure starts.
      const std::uint64_t completed_seq = msg.proc_seq;
      system_->loop().schedule_after(
          system_->proto().idle_release_after, [this, ue, completed_seq] {
            if (!alive_) return;
            const auto it = store_.find(ue);
            if (it == store_.end() || !it->second.state ||
                it->second.state->last_completed_proc != completed_seq ||
                procs_.contains(ue)) {
              return;  // superseded: the UE stayed active
            }
            UeState& state = mutable_state(ue);
            state.session_active = false;  // bearer released, context kept
            sync_pool_.submit(system_->costs().state_serialize_time(
                                  system_->policy().wire_format),
                              [this, ue] { send_checkpoint(ue); });
          });
      break;
    }
    case SyncMode::kNone:
    case SyncMode::kPerMessage:
      break;  // nothing at completion
  }
}

void Cpf::park_pending_fetch(const Msg& original) {
  pending_handover_[original.ue] = original;
  // Bound the wait: if the fetch holder dies before replying, nothing
  // else unparks this UE — the CTA sees the *routed* CPF alive and never
  // resends, so the UE would hang forever. After the timeout, give up on
  // the fetch and command Re-Attach (§4.2.4 rule 3's fallback).
  const UeId ue = original.ue;
  const std::uint64_t proc_seq = original.proc_seq;
  const std::uint32_t epoch = epoch_;
  system_->loop().schedule_after(
      system_->proto().fetch_timeout, [this, ue, proc_seq, epoch] {
        if (!alive_ || epoch_ != epoch) return;  // crashed meanwhile
        const auto it = pending_handover_.find(ue);
        if (it == pending_handover_.end() ||
            it->second.proc_seq != proc_seq) {
          return;  // resolved or superseded while the timer ran
        }
        const Msg parked = it->second;
        pending_handover_.erase(ue);
        ask_reattach(parked);
      });
}

void Cpf::send_checkpoint(UeId ue) {
  if (!alive_) return;
  const auto it = store_.find(ue);
  if (it == store_.end() || !it->second.state) return;
  const auto& state = it->second.state;
  const auto backups = system_->backups_for(ue, state->serving_region);
  for (const CpfId b : backups) {
    if (b == id_) {
      // This CPF serves the UE *and* sits in its replica set (in-region
      // fallback placement): it trivially holds the state, so ACK
      // directly — otherwise the CTA could never fully ACK and prune the
      // procedure (§4.2.3).
      Msg ack;
      ack.kind = MsgKind::kCheckpointAck;
      ack.ue = ue;
      ack.proc_seq = state->last_completed_proc;
      ack.lclock = state->last_lclock;
      ack.src_cpf = id_;
      ack.sender_epoch = epoch_;
      system_->cpf_to_cta(id_, state->serving_region, std::move(ack));
      continue;
    }
    Msg ckpt;
    ckpt.kind = MsgKind::kStateCheckpoint;
    ckpt.ue = ue;
    ckpt.proc_seq = state->last_completed_proc;
    ckpt.lclock = state->last_lclock;  // §4.2.3(2): end-of-procedure clock
    ckpt.region = state->serving_region;
    ckpt.src_cpf = id_;
    ckpt.state = state;
    ++system_->metrics().checkpoints_sent;
    system_->cpf_to_cpf(id_, b, std::move(ckpt));
  }
  // Elastic churn (DESIGN.md §19): once the rings have ever churned, the
  // post-churn ring owner may differ from the CPF executing this (pinned)
  // procedure — keep the owner warm too, so the UE's next procedure finds
  // current state where the ring now points. The ring_epoch gate keeps
  // churn-free runs byte-identical to pre-elastic builds.
  if (system_->ring_epoch() > 0) {
    const CpfId owner =
        system_->hashed_primary_for(ue, state->serving_region);
    if (owner != id_ && system_->cpf_alive(owner) &&
        std::find(backups.begin(), backups.end(), owner) == backups.end()) {
      Msg ckpt;
      ckpt.kind = MsgKind::kStateCheckpoint;
      ckpt.ue = ue;
      ckpt.proc_seq = state->last_completed_proc;
      ckpt.lclock = state->last_lclock;
      ckpt.region = state->serving_region;
      ckpt.src_cpf = id_;
      ckpt.state = state;
      ++system_->metrics().checkpoints_sent;
      system_->cpf_to_cpf(id_, owner, std::move(ckpt));
    }
  }
}

void Cpf::collect_served(std::vector<UeId>& out) const {
  if (!alive_) return;
  for (const auto& [ue, entry] : store_) {
    if (!entry.up_to_date || !entry.state) continue;
    if (entry.state->serving_region != region_) continue;
    out.push_back(ue);
  }
}

void Cpf::handoff(UeId ue, CpfId to) {
  if (!alive_ || to == id_) return;
  // The serialize cost rides the sync core like any checkpoint: handing a
  // pool's worth of UEs off is itself a load event the model should feel.
  const SimTime requested = system_->loop().now();
  sync_pool_.submit(
      system_->costs().state_serialize_time(system_->policy().wire_format),
      [this, ue, to, requested] {
        send_handoff_checkpoint(ue, to, requested);
      });
}

void Cpf::send_handoff_checkpoint(UeId ue, CpfId to, SimTime requested) {
  if (!alive_) return;
  const auto it = store_.find(ue);
  if (it == store_.end() || !it->second.state || !it->second.up_to_date) {
    return;  // state moved on (crash/install race): nothing current to ship
  }
  const auto& state = it->second.state;
  Msg ckpt;
  ckpt.kind = MsgKind::kStateCheckpoint;
  ckpt.ue = ue;
  ckpt.proc_seq = state->last_completed_proc;
  ckpt.lclock = state->last_lclock;
  ckpt.region = state->serving_region;
  ckpt.src_cpf = id_;
  ckpt.state = state;
  ++system_->metrics().checkpoints_sent;
  ++system_->metrics().handoff_ues;
  system_->metrics().handoff_pct.add(
      (system_->loop().now() - requested).ms());
  if (obs::FlightRecorder* fl = system_->flight()) {
    fl->record(system_->loop().now(), obs::FlightRecorder::Kind::kHandoff,
               static_cast<std::int64_t>(ue.value()), to.value());
  }
  system_->cpf_to_cpf(id_, to, std::move(ckpt));
}

UeState& Cpf::mutable_state(UeId ue) {
  Entry& entry = store_[ue];
  // Checkpoints share immutable snapshots; copy-on-write before mutating.
  auto owned = std::make_shared<UeState>(entry.state ? *entry.state
                                                     : UeState{});
  owned->ue = ue;
  entry.state = owned;
  return *owned;
}

void Cpf::reply_to_ue(const Msg& request, MsgKind kind) {
  Msg reply = request;
  reply.kind = kind;
  reply.src_cpf = id_;
  reply.state.reset();
  if (const auto it = store_.find(request.ue); it != store_.end() &&
                                               it->second.state) {
    reply.served_proc = it->second.state->last_completed_proc;
  }
  if (FaultInjection& faults = system_->faults();
      faults.cpf_stale_serves > 0 && reply.served_proc > 0) {
    // Planted bug (teeth test): claim the state predates the UE's last
    // write, as a stale replica serving past the up-to-date guard would.
    --faults.cpf_stale_serves;
    --reply.served_proc;
  }
  system_->cpf_to_cta(id_, request.region, std::move(reply));
}

bool Cpf::context_matches(const Msg& request) const {
  // UE-context validation: the stored state must be exactly the version
  // the UE believes in (§4.2.1); serving anything older loses the UE's
  // writes, anything newer cannot exist. Mismatch => Re-Attach, exactly
  // like a failed KSI/S-TMSI check in a real core.
  const auto it = store_.find(request.ue);
  return it != store_.end() && it->second.state &&
         it->second.state->last_completed_proc == request.expected_proc;
}

void Cpf::ask_reattach(const Msg& request) {
  Msg reply = request;
  reply.kind = MsgKind::kReattachCommand;
  reply.src_cpf = id_;
  reply.state.reset();
  system_->cpf_to_cta(id_, request.region, std::move(reply));
}

void Cpf::send_to_upf(const Msg& request, MsgKind kind) {
  Msg out = request;
  out.kind = kind;
  out.src_cpf = id_;
  out.state.reset();
  // The serving region's UPF handles the session (target region during a
  // handover).
  const std::uint32_t upf_region =
      (request.proc_type == ProcedureType::kHandover &&
       kind == MsgKind::kModifyBearer)
          ? request.target_region
          : region_;
  system_->cpf_to_upf(id_, upf_region, std::move(out));
}

void Cpf::crash() {
  alive_ = false;
  ++epoch_;
  ++system_->metrics().registry.counter(
      "cpf.crashes", {{"cpf", std::to_string(id_.value())}});
  request_pool_.reset();
  sync_pool_.reset();
  store_.clear();  // volatile state is gone
  procs_.clear();
  pending_handover_.clear();
}

void Cpf::restore() {
  alive_ = true;
}

void Cpf::preinstall(std::shared_ptr<const UeState> state, bool /*role*/) {
  const UeId ue = state->ue;
  store_[ue] = Entry{std::move(state), true};
}

bool Cpf::has_up_to_date(UeId ue) const {
  const auto it = store_.find(ue);
  return it != store_.end() && it->second.up_to_date &&
         it->second.state != nullptr;
}

const UeState* Cpf::peek_state(UeId ue) const {
  const auto it = store_.find(ue);
  return it == store_.end() ? nullptr : it->second.state.get();
}

}  // namespace neutrino::core
