// The replicated UE control state (§4.2: "BS ID, data plane endpoint
// identifiers, and user tracking area").
#pragma once

#include <cstdint>

#include "common/clock.hpp"
#include "common/ids.hpp"

namespace neutrino::core {

// Fields run from widest to narrowest so no padding sits between them:
// 56 bytes, which puts a make_shared block in an 80-byte malloc chunk
// instead of a 96-byte one. Every replica of every attached UE shares one.
struct UeState {
  UeId ue;
  std::uint64_t imsi = 0;
  /// Number of the last control procedure that completed for this UE.
  /// RYW (§4.2.1) reduces to: a CPF serving the UE must hold state with
  /// last_completed_proc equal to the UE's own completed-procedure count.
  std::uint64_t last_completed_proc = 0;
  /// Logical clock of the final message of that procedure (§4.2.3 step 2).
  LogicalClock::Value last_lclock = 0;

  std::uint32_t m_tmsi = 0;
  std::uint32_t serving_region = 0;
  BsId serving_bs;
  UpfId upf;
  Teid upf_teid;  // data-plane endpoint
  std::uint16_t tracking_area = 0;
  bool attached = false;
  bool session_active = false;  // data bearer established at the UPF
};
static_assert(sizeof(UeState) <= 56);

}  // namespace neutrino::core
