// Control Traffic Aggregator: logical-clock message log, ACK tracking,
// out-of-date marking and the two-level failure recovery driver (§4.2).
#include "core/system.hpp"

namespace neutrino::core {
namespace {

constexpr int kCores = 2;
/// Per-message forwarding (DPDK ring + consistent-hash lookup).
constexpr SimTime kForwardCost = SimTime::nanoseconds(700);
/// In-memory log append (std::map insert, §5).
constexpr SimTime kLogCost = SimTime::nanoseconds(250);

}  // namespace

Cta::Cta(System& system, CtaId id, std::uint32_t region)
    : system_(&system),
      id_(id),
      region_(region),
      pool_(system.loop(), kCores) {
  if (const std::size_t cap = system.proto().cta_queue_capacity; cap > 0) {
    pool_.set_capacity(
        cap, static_cast<std::size_t>(
                 static_cast<double>(cap) *
                 system.proto().attach_admission_fraction));
  }
}

void Cta::pin_in_flight() {
  // Level-1 churn prologue: freeze every mid-procedure UE on its current
  // route before the ring changes underneath it. pinned_seq remembers the
  // procedure the pin protects; anything newer releases it.
  for (auto& [ue, rec] : ues_) {
    if (rec.pinned_route) continue;
    if (!rec.pending_request && rec.procedures.empty()) continue;
    rec.pinned_route = route(ue);
    rec.pinned_seq = rec.pending_request
                         ? std::max(rec.pending_request->proc_seq,
                                    rec.last_seq_logged)
                         : rec.last_seq_logged;
  }
}

CpfId Cta::route(UeId ue) const {
  if (const auto it = ues_.find(ue); it != ues_.end()) {
    if (it->second.override_route &&
        system_->cpf_alive(*it->second.override_route)) {
      return *it->second.override_route;
    }
    // Elastic pin (DESIGN.md §19): a mid-procedure UE stays with its
    // pre-churn CPF until the procedure ends, so a ring change never
    // splits one procedure's messages across two owners.
    if (it->second.pinned_route &&
        system_->cpf_alive(*it->second.pinned_route)) {
      return *it->second.pinned_route;
    }
  }
  const CpfId primary = system_->hashed_primary_for(ue, region_);
  if (system_->cpf_alive(primary)) return primary;
  // Primary down: "an up-to-date CPF replica becomes primary" (§4.1) — the
  // replica set is where the state lives, so prefer it over ring walking.
  for (const CpfId b : system_->backups_for(ue, region_)) {
    if (system_->cpf_alive(b)) return b;
  }
  // No replicas (EPC) or all dead: consistent hashing walks to the next
  // live CPF of the level-1 ring (which will demand a Re-Attach).
  const auto& level1 = system_->level1_ring(region_);
  for (const CpfId candidate :
       level1.successors(System::ue_key(ue), level1.node_count())) {
    if (system_->cpf_alive(candidate)) return candidate;
  }
  return primary;  // all dead: the send will be dropped
}

void Cta::deliver_uplink(Msg msg) {
  SimTime cost = kForwardCost;
  if (system_->policy().cta_message_logging &&
      is_ue_control_message(msg.kind)) {
    cost += kLogCost;
  }
  // Bounded ingress (DESIGN.md §13): admission happens before the log and
  // before pending-request tracking, so to the protocol a shed message
  // never arrived — the UE's NAS retransmission re-drives it with backoff.
  if (!system_->admit(pool_, msg, region_, "cta")) return;
  if (obs::ProcTracer* tr = system_->tracer()) {
    const SimTime now = system_->loop().now();
    const SimTime queued = pool_.backlog();
    tr->hop(msg, obs::HopClass::kQueueing, "cta", region_, now, now + queued);
    tr->hop(msg, obs::HopClass::kService, "cta", region_, now + queued,
            now + queued + cost);
  }
  pool_.submit(cost, [this, m = std::move(msg)]() mutable {
    forward_uplink(std::move(m));
  });
}

void Cta::forward_uplink(Msg msg) {
  // §4.2.3(1): associate a logical clock with every control message.
  msg.lclock = lclock_.tick();

  const bool logging = system_->policy().cta_message_logging &&
                       is_ue_control_message(msg.kind);
  // Fire-and-forget procedure-final messages (AttachComplete, ICSResponse)
  // produce no response; tracking them as pending would leak records.
  const bool expects_response = msg.kind != MsgKind::kAttachComplete &&
                                msg.kind != MsgKind::kIcsResponse;
  if (is_ue_control_message(msg.kind) && (logging || expects_response)) {
    UeRecord& rec = ues_[msg.ue];

    // A procedure newer than the pinned one releases the elastic pin: the
    // old procedure is over, so the UE may move to its post-churn owner.
    if (rec.pinned_route && msg.proc_seq > rec.pinned_seq) {
      rec.pinned_route.reset();
      rec.pinned_seq = 0;
    }

    if (logging) {
      // A sequence gap means procedures ran through another CTA (control
      // handover away and back): everything this CTA remembers about the
      // UE — ACK watermarks, log, failover route — is stale. Start over.
      if (rec.last_seq_logged != 0 &&
          msg.proc_seq > rec.last_seq_logged + 1) {
        for (auto it = rec.procedures.begin();
             it != rec.procedures.end();) {
          const std::uint64_t seq = it->first;
          ++it;
          prune_procedure(rec, seq);
        }
        rec.acked_through.clear();
        rec.override_route.reset();
        rec.pinned_route.reset();
        rec.pinned_seq = 0;
        rec.first_seq_logged = 0;
        rec.last_seq_logged = 0;
      }
      if (rec.first_seq_logged == 0) rec.first_seq_logged = msg.proc_seq;
      rec.last_seq_logged = std::max(rec.last_seq_logged, msg.proc_seq);
      ProcedureLog& plog = rec.procedures[msg.proc_seq];
      if (plog.entries.empty()) {
        // One procedure logs a handful of messages (attach: 4); reserve
        // once instead of growing the vector message-by-message.
        plog.entries.reserve(8);
        plog.first_logged = system_->loop().now();
        arm_scan();
        // §4.2.4(4): a second procedure starting while the previous one
        // still has missing ACKs triggers an immediate outdated notify, so
        // a lagging replica cannot be mistaken for current by the new
        // procedure (e.g. a FastHandover target).
        if (const auto prev = rec.procedures.find(msg.proc_seq - 1);
            prev != rec.procedures.end() && !prev->second.entries.empty() &&
            system_->loop().now() - prev->second.first_logged >
                system_->proto().rule4_grace) {
          notify_outdated(msg.ue, prev->second, prev->first);
        }
      }
      const std::size_t bytes = system_->costs().encoded_size(
          system_->policy().wire_format, msg.kind);
      plog.entries.push_back({msg, bytes});
      account_log(static_cast<std::ptrdiff_t>(bytes), 1);
      ++system_->metrics().log_appends;
    }

    if (expects_response) rec.pending_request = msg;
  }

  system_->cta_to_cpf(region_, route(msg.ue), std::move(msg));
}

void Cta::deliver_downlink(Msg msg) {
  if (obs::ProcTracer* tr = system_->tracer()) {
    const SimTime now = system_->loop().now();
    const SimTime queued = pool_.backlog();
    tr->hop(msg, obs::HopClass::kQueueing, "cta", region_, now, now + queued);
    tr->hop(msg, obs::HopClass::kService, "cta", region_, now + queued,
            now + queued + kForwardCost);
  }
  pool_.submit(kForwardCost,
               [this, msg = std::move(msg)]() mutable {
    if (msg.kind == MsgKind::kCheckpointAck) {
      handle_ack(msg);
      return;
    }
    // Response toward the UE: the in-flight request is answered.
    if (const auto it = ues_.find(msg.ue); it != ues_.end()) {
      it->second.pending_request.reset();
      if (msg.kind == MsgKind::kHandoverCommand &&
          msg.target_region != region_) {
        // Control handover away: from here on the UE's messages flow
        // through the target region's CTA, which will also receive the
        // checkpoint ACKs. This CTA's log and watermarks for the UE are
        // ownerless — drop them (the target CTA rebuilds its own record
        // from the HandoverNotify onward).
        UeRecord& rec = it->second;
        while (!rec.procedures.empty()) {
          prune_procedure(rec, rec.procedures.begin()->first);
        }
        ues_.erase(it);
      } else if (it->second.procedures.empty() &&
                 !it->second.override_route && !it->second.pinned_route) {
        ues_.erase(it);  // nothing left to remember for this UE
      }
    }
    system_->cta_to_ue(std::move(msg));
  });
}

void Cta::handle_ack(const Msg& msg) {
  ++system_->metrics().checkpoint_acks;
  // Reject ACKs from a previous incarnation of the replica: the state they
  // vouch for died in the crash.
  if (msg.sender_epoch != system_->cpf(msg.src_cpf).epoch()) return;
  const auto rec_it = ues_.find(msg.ue);
  if (rec_it == ues_.end()) return;  // record already fully pruned
  UeRecord& rec = rec_it->second;
  auto& through = rec.acked_through[msg.src_cpf.value()];
  through = std::max(through, msg.proc_seq);

  const auto it = rec.procedures.find(msg.proc_seq);
  if (it == rec.procedures.end()) {
    // Already pruned (late duplicate ACK) or logging disabled.
    return;
  }
  ProcedureLog& plog = it->second;
  plog.end_lclock = msg.lclock;  // §4.2.3(2): end-of-procedure marker
  plog.acked_by.insert(msg.src_cpf.value());
  if (plog.acked_by.size() >=
      static_cast<std::size_t>(system_->policy().num_backups)) {
    // §4.2.3: all backups are current; the log entries are garbage.
    prune_procedure(rec, msg.proc_seq);
    ++system_->metrics().log_prunes;
    if (rec.procedures.empty() && !rec.pending_request &&
        !rec.override_route && !rec.pinned_route) {
      ues_.erase(msg.ue);
    }
  }
}

void Cta::prune_procedure(UeRecord& rec, std::uint64_t proc_seq) {
  const auto it = rec.procedures.find(proc_seq);
  if (it == rec.procedures.end()) return;
  if (FaultInjection& faults = system_->faults();
      faults.cta_unaccounted_prunes > 0) {
    // Planted bug (teeth test): drop the entries without adjusting the
    // byte/message accounting — the audit's recount must catch it.
    --faults.cta_unaccounted_prunes;
    rec.procedures.erase(it);
    return;
  }
  std::size_t bytes = 0;
  for (const auto& entry : it->second.entries) bytes += entry.bytes;
  account_log(-static_cast<std::ptrdiff_t>(bytes),
              -static_cast<std::ptrdiff_t>(it->second.entries.size()));
  rec.procedures.erase(it);
}

void Cta::account_log(std::ptrdiff_t delta_bytes, std::ptrdiff_t delta_msgs) {
  log_bytes_ = static_cast<std::size_t>(
      static_cast<std::ptrdiff_t>(log_bytes_) + delta_bytes);
  log_messages_ = static_cast<std::size_t>(
      static_cast<std::ptrdiff_t>(log_messages_) + delta_msgs);
}

void Cta::arm_scan() {
  if (scan_armed_ || !alive_) return;
  scan_armed_ = true;
  system_->loop().schedule_after(system_->proto().log_scan_interval, [this] {
    scan_armed_ = false;
    if (alive_) scan_log();
  });
}

void Cta::scan_log() {
  // §4.2.4(1): procedures whose ACKs are overdue — tell the lagging
  // replicas their copy is outdated, then drop the messages.
  const SimTime now = system_->loop().now();
  const SimTime timeout = system_->proto().ack_timeout;
  for (auto ue_it = ues_.begin(); ue_it != ues_.end();) {
    UeRecord& rec = ue_it->second;
    for (auto proc_it = rec.procedures.begin();
         proc_it != rec.procedures.end();) {
      ProcedureLog& plog = proc_it->second;
      if (now - plog.first_logged > timeout) {
        notify_outdated(ue_it->first, plog, proc_it->first);
        std::size_t bytes = 0;
        for (const auto& e : plog.entries) bytes += e.bytes;
        account_log(-static_cast<std::ptrdiff_t>(bytes),
                    -static_cast<std::ptrdiff_t>(plog.entries.size()));
        proc_it = rec.procedures.erase(proc_it);
      } else {
        ++proc_it;
      }
    }
    if (rec.procedures.empty() && !rec.pending_request &&
        !rec.override_route && !rec.pinned_route) {
      ue_it = ues_.erase(ue_it);
    } else {
      ++ue_it;
    }
  }
  if (log_messages_ > 0) arm_scan();
}

void Cta::notify_outdated(UeId ue, const ProcedureLog& plog,
                          std::uint64_t proc_seq) {
  // End-of-procedure clock: from the checkpoint broadcast if one was ACKed,
  // otherwise the last message logged so far.
  const LogicalClock::Value marker =
      plog.end_lclock != 0
          ? plog.end_lclock
          : (plog.entries.empty() ? 0 : plog.entries.back().msg.lclock);
  const auto replica_set = system_->backups_for(ue, region_);
  std::optional<CpfId> fetch_from;  // the first replica that ACKed
  for (const CpfId b : replica_set) {
    if (!fetch_from && plog.acked_by.contains(b.value())) fetch_from = b;
  }
  for (const CpfId b : replica_set) {
    if (plog.acked_by.contains(b.value())) continue;
    Msg notify;
    notify.kind = MsgKind::kOutdatedNotify;
    notify.ue = ue;
    notify.proc_seq = proc_seq;
    notify.lclock = marker;  // ignore older state updates (§4.2.4)
    notify.region = region_;
    notify.fetch_from = fetch_from;
    ++system_->metrics().outdated_notifies;
    system_->cta_to_cpf(region_, b, std::move(notify));
  }
}

void Cta::on_cpf_failure(CpfId failed) {
  std::vector<UeId> affected;
  for (auto& [ue, rec] : ues_) {
    // The failed CPF's volatile state is gone: whatever it ACKed no longer
    // exists, so its vouchers are void.
    rec.acked_through.erase(failed.value());
    for (auto& [proc, plog] : rec.procedures) {
      plog.acked_by.erase(failed.value());
    }
    const CpfId hashed = system_->hashed_primary_for(ue, region_);
    const CpfId effective =
        rec.override_route
            ? *rec.override_route
            : (rec.pinned_route ? *rec.pinned_route : hashed);
    if (rec.pinned_route && *rec.pinned_route == failed) {
      // The pinned pre-churn owner is gone; recovery (below) re-homes the
      // UE, and its next procedure routes by the post-churn ring.
      rec.pinned_route.reset();
      rec.pinned_seq = 0;
    }
    if (effective == failed &&
        (rec.pending_request || !rec.procedures.empty())) {
      affected.push_back(ue);
    }
  }
  // Drive recovery for every UE this CTA was routing to the failed CPF.
  for (const UeId ue : affected) recover_ue(ue, ues_[ue]);
}

void Cta::recover_ue(UeId ue, UeRecord& rec) {
  Metrics& metrics = system_->metrics();
  const CorePolicy& policy = system_->policy();
  // Which recovery scenario actually fired, labeled per region — recovery
  // is rare, so the registry lookup cost here is irrelevant.
  auto count_recovery = [&](const char* scenario) {
    ++metrics.registry.counter("cta.recoveries",
                               {{"region", std::to_string(region_)},
                                {"scenario", scenario}});
  };

  auto command_reattach = [&](const char* scenario) {
    // Failure scenario 3/4: no usable replica — the UE rebuilds a
    // consistent state from scratch (§4.2.5), preserving RYW by never
    // serving it stale data. `scenario` distinguishes *why* no replica was
    // usable: "reattach" (no live backup at all) vs "hole" (live backups
    // existed but a pruned/dropped log hole made every one unreplayable).
    Msg cmd;
    cmd.kind = MsgKind::kReattachCommand;
    cmd.ue = ue;
    cmd.proc_seq =
        rec.pending_request ? rec.pending_request->proc_seq : 0;
    cmd.region = region_;
    cmd.is_replay = true;  // recovery-origin: the UE was hit by the crash
    rec.pending_request.reset();
    rec.override_route.reset();
    count_recovery(scenario);
    system_->cta_to_ue(std::move(cmd));
  };

  switch (policy.recovery) {
    case RecoveryMode::kReattach:
      command_reattach("reattach");
      return;

    case RecoveryMode::kFailover: {
      // SkyCore: state was synced per message; promote a live backup and
      // resend the in-flight request.
      for (const CpfId b : system_->backups_for(ue, region_)) {
        if (!system_->cpf_alive(b)) continue;
        rec.override_route = b;
        ++metrics.failovers;
        count_recovery("failover");
        if (rec.pending_request) {
          Msg resend = *rec.pending_request;
          resend.is_replay = true;
          system_->cta_to_cpf(region_, b, std::move(resend));
        }
        return;
      }
      command_reattach("reattach");
      return;
    }

    case RecoveryMode::kReplay: {
      // Neutrino: pick the first live backup whose state can be brought
      // current from the log, replaying what it is missing (§4.2.5,
      // scenarios 1 and 2).
      bool skipped_hole = false;
      for (const CpfId b : system_->backups_for(ue, region_)) {
        if (!system_->cpf_alive(b)) continue;
        // A checkpoint ACK vouches for the full state through that
        // procedure, so the backup needs exactly the procedures after its
        // acked-through watermark. Every one of them must still be in the
        // log, completely — a hole (pruned on an ACK that later died with
        // a replica crash, or dropped by the §4.2.4(1d) timeout) makes
        // this backup unrecoverable from the log.
        const auto through_it = rec.acked_through.find(b.value());
        const std::uint64_t b_has =
            through_it != rec.acked_through.end() ? through_it->second : 0;
        const std::uint64_t replay_from =
            std::max(b_has + 1, rec.first_seq_logged);
        std::vector<const Msg*> to_replay;
        bool replayable = rec.first_seq_logged != 0;
        for (std::uint64_t p = replay_from;
             p <= rec.last_seq_logged && replayable; ++p) {
          const auto it = rec.procedures.find(p);
          if (it == rec.procedures.end() || it->second.entries.empty()) {
            replayable = false;
            break;
          }
          for (const auto& entry : it->second.entries) {
            to_replay.push_back(&entry.msg);
          }
        }
        if (!replayable) {
          skipped_hole = true;  // a live backup lost to a log hole
          continue;            // try another backup
        }
        rec.override_route = b;
        if (to_replay.empty()) {
          // Scenario 1: the backup already holds the full state — nothing
          // to replay, so nothing regenerates a response. Promote it and
          // resend the in-flight request (the per-message failover path);
          // the pending request stays pending because the resend, not a
          // replay, produces the response.
          ++metrics.failovers;
          count_recovery("failover");
          if (rec.pending_request) {
            Msg resend = *rec.pending_request;
            resend.is_replay = true;
            system_->cta_to_cpf(region_, b, std::move(resend));
          }
        } else {
          metrics.replays += to_replay.size();
          count_recovery("replay");
          for (const Msg* original : to_replay) {
            Msg replay = *original;
            replay.is_replay = true;
            system_->cta_to_cpf(region_, b, std::move(replay));
          }
          rec.pending_request.reset();  // the replay regenerates the response
        }
        return;
      }
      // Every live backup was disqualified by a pruned/dropped log hole
      // (or no backup is alive at all): fall back to Re-Attach. The
      // pending request is void either way — the Re-Attach supersedes it —
      // but it must still be pending when the command is stamped: the
      // frontend matches the command against the in-flight proc_seq and
      // discards a zero-stamped one as stale, stranding the UE.
      command_reattach(skipped_hole ? "hole" : "reattach");
      return;
    }
  }
}

void Cta::start_failure_detector(SimTime probe_interval, int misses) {
  probe_interval_ = probe_interval;
  probe_miss_limit_ = misses;
  system_->loop().schedule_after(probe_interval_, [this] { probe_round(); });
}

void Cta::probe_round() {
  if (!alive_) return;
  // Probe every CPF this CTA can route to: its level-1 pool and the
  // level-2 replica candidates. A live CPF answers instantly in the model
  // (the probe RTT is far below the interval); a dead one accumulates
  // misses until declared failed, which triggers the same recovery as an
  // operator notification would (§4.1).
  for (const CpfId cpf : system_->routable_cpfs(region_)) {
    if (system_->cpf_alive(cpf)) {
      missed_probes_[cpf.value()] = 0;
      if (declared_failed_.erase(cpf.value()) > 0) {
        // Restarted (empty) instance: back in rotation.
      }
      continue;
    }
    if (declared_failed_.contains(cpf.value())) continue;
    if (++missed_probes_[cpf.value()] >= probe_miss_limit_) {
      declared_failed_.insert(cpf.value());
      on_cpf_failure(cpf);
    }
  }
  system_->loop().schedule_after(probe_interval_, [this] { probe_round(); });
}

void Cta::crash() {
  alive_ = false;
  // Jobs queued or in service die with the process: without this they
  // would still fire and forward/log through the dead CTA.
  pool_.reset();
  // The CTA log is volatile (§4.2.3): everything is lost.
  ues_.clear();
  log_bytes_ = 0;
  log_messages_ = 0;
}

void Cta::audit_log_invariants(std::vector<std::string>& out) const {
  const auto tag = [this](std::string what) {
    return "cta[" + std::to_string(region_) + "] " + std::move(what);
  };
  const auto backups_needed =
      static_cast<std::size_t>(system_->policy().num_backups);
  std::size_t bytes = 0;
  std::size_t messages = 0;
  for (const auto& [ue, rec] : ues_) {
    if (rec.first_seq_logged == 0 && !rec.procedures.empty()) {
      out.push_back(tag("ue " + std::to_string(ue.value()) +
                        ": log entries retained with first_seq_logged=0"));
    }
    for (const auto& [seq, plog] : rec.procedures) {
      if (rec.first_seq_logged != 0 && seq < rec.first_seq_logged) {
        // An entry below the low-water mark is an un-pruned hole: the
        // replay path starts at first_seq_logged and would never find it.
        out.push_back(tag("ue " + std::to_string(ue.value()) + ": proc " +
                          std::to_string(seq) + " below first_seq_logged " +
                          std::to_string(rec.first_seq_logged)));
      }
      if (seq > rec.last_seq_logged) {
        out.push_back(tag("ue " + std::to_string(ue.value()) + ": proc " +
                          std::to_string(seq) + " beyond last_seq_logged " +
                          std::to_string(rec.last_seq_logged)));
      }
      if (plog.entries.empty()) {
        out.push_back(tag("ue " + std::to_string(ue.value()) + ": proc " +
                          std::to_string(seq) + " retained with no entries"));
      }
      if (backups_needed > 0 && plog.acked_by.size() >= backups_needed) {
        // handle_ack prunes at the threshold, so a surviving fully-ACKed
        // procedure means a completed procedure could replay twice.
        out.push_back(tag("ue " + std::to_string(ue.value()) + ": proc " +
                          std::to_string(seq) +
                          " fully ACKed but not pruned"));
      }
      for (const auto& entry : plog.entries) {
        bytes += entry.bytes;
        ++messages;
      }
    }
  }
  if (bytes != log_bytes_ || messages != log_messages_) {
    out.push_back(tag("log accounting drift: counted " +
                      std::to_string(bytes) + "B/" +
                      std::to_string(messages) + "msgs, recorded " +
                      std::to_string(log_bytes_) + "B/" +
                      std::to_string(log_messages_) + "msgs"));
  }
}

}  // namespace neutrino::core
