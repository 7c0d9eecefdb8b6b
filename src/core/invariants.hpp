// Chaos-harness hook points (DESIGN.md §12): an observer interface the
// online invariant checker attaches to a System, and the deliberate
// fault-injection knobs (a stale CPF serve, an unaccounted CTA log prune)
// the checker's "teeth" tests flip to prove a planted bug is caught. Both are inert by default — an unattached
// observer costs one pointer test per hook site, and zero-valued fault
// counters leave every code path untouched.
#pragma once

#include <cstdint>

#include "core/msg.hpp"

namespace neutrino::core {

/// Observer of UE-visible protocol milestones. The chaos invariant
/// checker implements this to track, independently of the Frontend's own
/// bookkeeping, what each UE has completed and what the core served it.
class InvariantObserver {
 public:
  virtual ~InvariantObserver() = default;

  /// A read-carrying final response reached the UE. `served_proc` is the
  /// serving CPF's claim of the last procedure reflected in the state it
  /// served; fires before the completion below (so the checker's own
  /// last-completed watermark is still the pre-completion value).
  virtual void on_final_response(UeId ue, ProcedureType type,
                                 std::uint64_t served_proc) = 0;

  /// A procedure completed at the UE (the Frontend advanced its
  /// last-completed watermark to `proc_seq`).
  virtual void on_procedure_complete(UeId ue, std::uint64_t proc_seq,
                                     ProcedureType type) = 0;
};

/// Deliberate bugs, armed per-System by the teeth tests (each counter is
/// "break the next N occurrences"). Production runs leave them zero.
struct FaultInjection {
  /// CPF replies report a served_proc one procedure behind the truth —
  /// models serving from a stale replica past the up-to-date guard. The
  /// checker must flag each as a Read-your-Writes violation.
  std::uint32_t cpf_stale_serves = 0;
  /// CTA log prunes skip the byte/message accounting — models the
  /// accounting drift the audit's recomputation must catch.
  std::uint32_t cta_unaccounted_prunes = 0;
};

}  // namespace neutrino::core
