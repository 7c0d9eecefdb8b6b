// Control-plane messages and procedures as carried by the simulator.
//
// Each simulated message names the S1AP/NAS/GTP-C wire message it stands
// for (MsgKind); the cost model maps that kind to a real measured
// en/decode cost and encoded size for the active wire format, so the
// simulator's service times and log sizes are grounded in the real codecs.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "core/ue_state.hpp"

namespace neutrino::core {

enum class MsgKind : std::uint8_t {
  // UE/BS originated
  kAttachRequest,
  kAuthResponse,
  kSecurityModeComplete,
  kAttachComplete,
  kServiceRequest,
  kIcsResponse,          // InitialContextSetupResponse from BS
  kHandoverRequired,
  kHandoverNotify,
  kTrackingAreaUpdate,
  // CPF originated toward UE/BS
  kAuthRequest,
  kSecurityModeCommand,
  kAttachAccept,         // rides InitialContextSetupRequest
  kServiceAccept,        // InitialContextSetupRequest for service request
  kHandoverCommand,
  kHandoverComplete,     // final confirmation closing a handover
  kReattachCommand,      // UEContextReleaseCommand: UE must re-attach
  // CPF <-> CPF
  kHandoverRequest,      // may carry migrated state (HandoverMode::kMigrate)
  kHandoverRequestAck,
  kStateCheckpoint,
  kStateFetch,
  kStateFetchResponse,
  // CPF <-> UPF (S11)
  kCreateSession,
  kCreateSessionResponse,
  kModifyBearer,
  kModifyBearerResponse,
  kDeleteSession,
  kDeleteSessionResponse,
  // Idle-mode and session-release extensions
  kDetachRequest,        // UE-initiated detach
  kDetachAccept,
  kTauAccept,            // tracking-area-update accept
  kDownlinkDataNotification,  // UPF -> CPF: data waiting for an idle UE
  kPaging,               // CPF -> UE via the tracking area
  // CPF/replica <-> CTA
  kCheckpointAck,
  kOutdatedNotify,
};

constexpr std::string_view to_string(MsgKind k) {
  switch (k) {
    case MsgKind::kAttachRequest: return "AttachRequest";
    case MsgKind::kAuthResponse: return "AuthResponse";
    case MsgKind::kSecurityModeComplete: return "SecurityModeComplete";
    case MsgKind::kAttachComplete: return "AttachComplete";
    case MsgKind::kServiceRequest: return "ServiceRequest";
    case MsgKind::kIcsResponse: return "ICSResponse";
    case MsgKind::kHandoverRequired: return "HandoverRequired";
    case MsgKind::kHandoverNotify: return "HandoverNotify";
    case MsgKind::kTrackingAreaUpdate: return "TrackingAreaUpdate";
    case MsgKind::kAuthRequest: return "AuthRequest";
    case MsgKind::kSecurityModeCommand: return "SecurityModeCommand";
    case MsgKind::kAttachAccept: return "AttachAccept";
    case MsgKind::kServiceAccept: return "ServiceAccept";
    case MsgKind::kHandoverCommand: return "HandoverCommand";
    case MsgKind::kHandoverComplete: return "HandoverComplete";
    case MsgKind::kReattachCommand: return "ReattachCommand";
    case MsgKind::kHandoverRequest: return "HandoverRequest";
    case MsgKind::kHandoverRequestAck: return "HandoverRequestAck";
    case MsgKind::kStateCheckpoint: return "StateCheckpoint";
    case MsgKind::kStateFetch: return "StateFetch";
    case MsgKind::kStateFetchResponse: return "StateFetchResponse";
    case MsgKind::kCreateSession: return "CreateSession";
    case MsgKind::kCreateSessionResponse: return "CreateSessionResponse";
    case MsgKind::kModifyBearer: return "ModifyBearer";
    case MsgKind::kModifyBearerResponse: return "ModifyBearerResponse";
    case MsgKind::kDeleteSession: return "DeleteSession";
    case MsgKind::kDeleteSessionResponse: return "DeleteSessionResponse";
    case MsgKind::kDetachRequest: return "DetachRequest";
    case MsgKind::kDetachAccept: return "DetachAccept";
    case MsgKind::kTauAccept: return "TAUAccept";
    case MsgKind::kDownlinkDataNotification: return "DownlinkDataNotification";
    case MsgKind::kPaging: return "Paging";
    case MsgKind::kCheckpointAck: return "CheckpointAck";
    case MsgKind::kOutdatedNotify: return "OutdatedNotify";
  }
  return "?";
}

/// True for the messages the CTA logs (§4.2.3): control traffic between
/// UE/BS and CPF, not replication chatter.
constexpr bool is_ue_control_message(MsgKind k) {
  switch (k) {
    case MsgKind::kAttachRequest:
    case MsgKind::kAuthResponse:
    case MsgKind::kSecurityModeComplete:
    case MsgKind::kAttachComplete:
    case MsgKind::kServiceRequest:
    case MsgKind::kIcsResponse:
    case MsgKind::kHandoverRequired:
    case MsgKind::kHandoverNotify:
    case MsgKind::kTrackingAreaUpdate:
    case MsgKind::kDetachRequest:
      return true;
    default:
      return false;
  }
}

enum class ProcedureType : std::uint8_t {
  kAttach,
  kServiceRequest,
  kHandover,      // inter-CPF handover
  kIntraHandover, // BS change within a region, no CPF change
  kReattach,      // recovery path: release + full attach
  kDetach,        // UE-initiated session release
  kTau,           // tracking area update (idle-mode mobility)
};
/// Tables indexed by procedure type hold one entry per value above
/// (kTau stays last).
inline constexpr std::size_t kProcTypes =
    static_cast<std::size_t>(ProcedureType::kTau) + 1;

constexpr std::string_view to_string(ProcedureType p) {
  switch (p) {
    case ProcedureType::kAttach: return "attach";
    case ProcedureType::kServiceRequest: return "service_request";
    case ProcedureType::kHandover: return "handover";
    case ProcedureType::kIntraHandover: return "intra_handover";
    case ProcedureType::kReattach: return "reattach";
    case ProcedureType::kDetach: return "detach";
    case ProcedureType::kTau: return "tau";
  }
  return "?";
}

/// One simulated control message, owned by value by the event of its hop
/// or the service-pool job it waits in: 80 bytes. `state` is its only
/// member with a destructor (it releases a snapshot reference); fields
/// run from widest to narrowest, so only the tail pads.
struct Msg {
  /// Replication payload (kStateCheckpoint / kStateFetchResponse /
  /// kHandoverRequest with migration): a handle to an immutable snapshot.
  StateRef state;
  UeId ue;
  std::uint64_t proc_seq = 0;  // per-UE procedure number
  LogicalClock::Value lclock = 0;  // stamped by the CTA (§4.2.3)
  /// last_completed_proc of the state the CPF served from; the frontend
  /// compares it against the UE's own completed count — the executable
  /// Read-your-Writes check (§4.2.1).
  std::uint64_t served_proc = 0;
  /// The UE's own context version (its last completed procedure), stamped
  /// on procedure-initiating messages. A CPF whose stored state disagrees
  /// must reject and demand Re-Attach — the UE-side context validation
  /// (KSI/S-TMSI checks) that §3.1 builds on.
  std::uint64_t expected_proc = 0;
  CpfId src_cpf;                   // sender, for CPF<->CPF traffic
  /// Sender's crash incarnation, stamped on checkpoint ACKs: an ACK from a
  /// previous incarnation vouches for state that died with the crash and
  /// must be ignored by the CTA.
  std::uint32_t sender_epoch = 0;
  std::uint32_t region = 0;        // level-1 region the UE currently uses
  std::uint32_t target_region = 0; // handover destination region
  /// Region the UE was homed in before this message (a handover target
  /// derives the level-2 replica placement from the *source* region).
  std::uint32_t prev_region = 0;
  /// kOutdatedNotify: the first replica, in ring order, that ACKed the
  /// procedure and so holds up-to-date state; the outdated replica fetches
  /// from it (§4.2.4 1a-i, 1c). Empty when no replica ACKed.
  std::optional<CpfId> fetch_from;
  MsgKind kind = MsgKind::kAttachRequest;
  ProcedureType proc_type = ProcedureType::kAttach;
  bool is_replay = false;          // re-injected from the CTA log
};
static_assert(sizeof(Msg) <= 80);

}  // namespace neutrino::core
