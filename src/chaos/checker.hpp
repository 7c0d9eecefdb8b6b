// Online invariant checker: a sim observer that rides along with a chaos
// run and independently re-derives the properties the protocol is
// supposed to preserve across failures.
//
// Checked invariants:
//  * Read-your-Writes (§4.2.1): every read-carrying final response must
//    serve state reflecting all procedures this UE completed. The checker
//    keeps its own per-UE watermark (advanced only by completion events),
//    so it does not trust the frontend's bookkeeping it is auditing.
//  * Completion monotonicity: per-UE procedure sequence numbers complete
//    strictly increasing — a repeat means a procedure completed twice
//    (e.g. once live and once from a replayed log).
//  * CTA log well-formedness (audited periodically and at the end, via
//    Cta::audit_log_invariants): no un-pruned entries below the pruning
//    watermark, no fully-ACKed retained procedures, byte/message
//    accounting matches the live log.
//
// One checker per System instance: under the sharded runtime each shard
// gets its own (UEs partition by home shard, and observer callbacks must
// stay on the owning shard's thread).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/system.hpp"

namespace neutrino::chaos {

class InvariantChecker final : public core::InvariantObserver {
 public:
  /// Audit CTA logs every `interval` until `audit_until` (bounded so the
  /// self-rescheduling audit event cannot keep the loop alive forever).
  InvariantChecker(core::System& system, SimTime interval, SimTime audit_until)
      : system_(&system), interval_(interval), until_(audit_until) {}

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  /// Attach to the system and start the periodic audit. Call before the
  /// run; the checker must outlive it.
  void arm() {
    system_->attach_invariant_observer(*this);
    schedule_audit();
  }

  /// Seed the RYW watermark for a preattached UE (preattach_context sets
  /// last_completed_seq = 1 without a completion event).
  void note_preattach(UeId ue) { watermark_[ue.value()] = 1; }

  void on_final_response(UeId ue, core::ProcedureType type,
                         std::uint64_t served_proc) override {
    // Attach and Re-Attach rebuild state from scratch — they are the
    // baseline-resetting writes, not reads (same rule as check_ryw).
    if (type == core::ProcedureType::kAttach ||
        type == core::ProcedureType::kReattach) {
      return;
    }
    const auto it = watermark_.find(ue.value());
    if (it == watermark_.end()) return;  // no baseline for this UE
    if (served_proc != it->second) {
      record("ryw: ue=" + std::to_string(ue.value()) +
             " served_proc=" + std::to_string(served_proc) +
             " expected=" + std::to_string(it->second) + " (" +
             std::string{core::to_string(type)} + ")",
             "ryw", static_cast<std::int64_t>(ue.value()));
    }
  }

  void on_procedure_complete(UeId ue, std::uint64_t proc_seq,
                             core::ProcedureType /*type*/) override {
    std::uint64_t& last = completed_[ue.value()];
    if (proc_seq <= last) {
      record("double completion: ue=" + std::to_string(ue.value()) +
             " seq=" + std::to_string(proc_seq) +
             " already completed through " + std::to_string(last),
             "double_completion", static_cast<std::int64_t>(ue.value()));
    } else {
      last = proc_seq;
    }
    watermark_[ue.value()] = proc_seq;
  }

  /// Post-run audit: final CTA log scan, and whether the loop drained.
  void final_check() {
    audit_ctas();
    quiesced_ = system_->loop().empty();
  }

  [[nodiscard]] std::uint64_t violation_count() const { return count_; }
  [[nodiscard]] const std::vector<std::string>& violations() const {
    return descriptions_;
  }
  [[nodiscard]] bool quiesced() const { return quiesced_; }

 private:
  static constexpr std::size_t kMaxDescriptions = 32;

  void schedule_audit() {
    if (system_->loop().now() >= until_) return;
    system_->loop().schedule_after(interval_, [this] {
      audit_ctas();
      schedule_audit();
    });
  }

  void audit_ctas() {
    const auto regions =
        static_cast<std::uint32_t>(system_->topo().total_regions());
    std::vector<std::string> found;
    for (std::uint32_t r = 0; r < regions; ++r) {
      if (!system_->owns_region(r) || !system_->cta_alive(r)) continue;
      system_->cta(r).audit_log_invariants(found);
    }
    for (std::string& v : found) record(std::move(v), "cta_log");
  }

  /// `tag` must be a string literal: it rides into the flight recorder,
  /// whose Event::detail is never owned. Violations land in the flight
  /// ring too (at current sim-time), so a teeth reproducer whose minimal
  /// schedule triggers no crash/shed/retx still ships a non-empty dump.
  void record(std::string v, const char* tag, std::int64_t a = -1) {
    ++count_;
    if (obs::FlightRecorder* f = system_->flight()) {
      f->record(system_->loop().now(), obs::FlightRecorder::Kind::kViolation,
                a, -1, tag);
    }
    if (descriptions_.size() < kMaxDescriptions) {
      descriptions_.push_back(std::move(v));
    }
  }

  core::System* system_;
  SimTime interval_;
  SimTime until_;
  std::unordered_map<std::uint64_t, std::uint64_t> watermark_;
  std::unordered_map<std::uint64_t, std::uint64_t> completed_;
  std::vector<std::string> descriptions_;
  std::uint64_t count_ = 0;
  bool quiesced_ = false;
};

}  // namespace neutrino::chaos
