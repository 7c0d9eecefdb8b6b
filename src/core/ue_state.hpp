// The replicated UE control state (§4.2: "BS ID, data plane endpoint
// identifiers, and user tracking area") and StateRef, the one handle that
// replicas and replication messages hold it by.
#pragma once

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/clock.hpp"
#include "common/ids.hpp"

namespace neutrino::core {

// Fields run from widest to narrowest, so only the tail pads: 44 bytes of
// fields in 48. The IMSI and M-TMSI a real core keeps with the context
// are functions of the UE id here, so they are not stored.
struct UeState {
  UeId ue;
  /// Number of the last control procedure that completed for this UE.
  /// RYW (§4.2.1) reduces to: a CPF serving the UE must hold state with
  /// last_completed_proc equal to the UE's own completed-procedure count.
  std::uint64_t last_completed_proc = 0;
  /// Logical clock of the final message of that procedure (§4.2.3 step 2).
  LogicalClock::Value last_lclock = 0;

  std::uint32_t serving_region = 0;
  BsId serving_bs;
  UpfId upf;
  Teid upf_teid;  // data-plane endpoint
  std::uint16_t tracking_area = 0;
  bool attached = false;
  bool session_active = false;  // data bearer established at the UPF
};
static_assert(sizeof(UeState) <= 48);

/// An 8-byte counted handle to one immutable UeState snapshot: a heap box
/// holding the state and a 32-bit count of the handles to it, 56 bytes in
/// a 64-byte malloc chunk. Every replica of a UE (1 + N `Cpf::Entry`s)
/// and every checkpoint in flight shares one box. A copy increments the
/// count (relaxed: the copier already holds a reference), a release
/// decrements it (acq_rel, so the last releaser sees every earlier
/// holder's reads finish), and the last release frees the box. Handles
/// may cross shards inside a `Msg`; the box never changes after it is
/// shared, because `mutate()` is the only writable access and aborts, in
/// every build, on a box that any other handle references. A count cannot
/// wrap: 2^32 handles would take 32 GiB.
class StateRef {
 public:
  StateRef() = default;
  /// A new snapshot holding a copy of `state`, referenced by this handle.
  explicit StateRef(const UeState& state) : box_(new Box{state, {1}}) {}
  StateRef(const StateRef& other) noexcept : box_(other.box_) {
    if (box_ != nullptr) box_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  StateRef(StateRef&& other) noexcept
      : box_(std::exchange(other.box_, nullptr)) {}
  StateRef& operator=(StateRef other) noexcept {
    std::swap(box_, other.box_);
    return *this;
  }
  ~StateRef() { reset(); }

  /// Drops this handle's reference; the last one frees the box.
  void reset() noexcept {
    Box* box = std::exchange(box_, nullptr);
    if (box != nullptr &&
        box->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete box;
    }
  }

  [[nodiscard]] const UeState* get() const {
    return box_ == nullptr ? nullptr : &box_->state;
  }
  const UeState& operator*() const { return box_->state; }
  const UeState* operator->() const { return &box_->state; }
  explicit operator bool() const { return box_ != nullptr; }
  /// Handles sharing this snapshot (0 for an empty handle).
  [[nodiscard]] std::uint32_t use_count() const {
    return box_ == nullptr ? 0 : box_->refs.load(std::memory_order_acquire);
  }

  /// Writable access to a snapshot no other handle references yet, i.e.
  /// before it is published. Anything else aborts in every build: a write
  /// through a shared box would change what replicas and in-flight
  /// checkpoints hold, and the cross-lane argument (core/shard_link.hpp)
  /// rests on boxes never changing once shared.
  UeState& mutate() {
    if (use_count() != 1) {
      std::fprintf(stderr,
                   "StateRef::mutate: snapshot has %" PRIu32
                   " handles; only an unshared one may be written\n",
                   use_count());
      std::abort();
    }
    return box_->state;
  }

 private:
  struct Box {
    UeState state;
    std::atomic<std::uint32_t> refs;
  };
  static_assert(sizeof(Box) <= 56);  // a 64-byte malloc chunk

  Box* box_ = nullptr;
};
static_assert(sizeof(StateRef) == 8);

}  // namespace neutrino::core
