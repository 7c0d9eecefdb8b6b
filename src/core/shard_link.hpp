// Cross-shard transport contract between core::System and the sharded
// runtime (sim/parallel/runtime.hpp).
//
// Under sharding, every shard constructs the *full* System object graph
// (a few hundred nodes — negligible), but only executes the logic of the
// nodes in the regions it owns; the rest are shadows that answer cheap
// liveness/epoch queries and are kept consistent by mirroring failure
// injections on every shard (ShardedSystem::schedule_crash). When a
// transport method targets a region another shard owns, it computes the
// link latency as usual and hands the message to the CrossShardSink as a
// ShardEnvelope instead of scheduling locally; the runtime ferries it
// through an SPSC channel and the owning shard's System re-schedules it
// at the precomputed arrival time (System::deliver_envelope). No node
// draws a random number, so a shard carries no RNG stream: a run's
// randomness is all in its trace, generated before the run (src/traffic).
//
// Messages cross by value, as they travel on every hop; only the Msg's
// `state` snapshot is shared. Its control block uses atomic refcounts and
// UeState snapshots are immutable after publication (Cpf::mutable_state
// clones before writing), so the barrier's happens-before edge makes this
// race-free.
#pragma once

#include <cstdint>

#include "common/clock.hpp"
#include "core/msg.hpp"

namespace neutrino::core {

struct ShardEnvelope {
  /// The node entry point the message arrives at through System::dispatch,
  /// which applies the alive gates. UE↔CTA hops never cross shards.
  enum class Dest : std::uint8_t {
    kUe,           // → Frontend::deliver     (dest_id = region)
    kCtaUplink,    // → Cta::deliver_uplink   (dest_id = region)
    kCtaDownlink,  // → Cta::deliver_downlink (dest_id = region)
    kCpf,          // → Cpf::deliver          (dest_id = CpfId value)
    kUpf,          // → Upf::deliver          (dest_id = region)
  };
  Dest dest = Dest::kCpf;
  std::uint32_t dest_id = 0;
  Msg msg;
};

/// Implemented by ShardedSystem; posts into the runtime's SPSC channels.
class CrossShardSink {
 public:
  virtual ~CrossShardSink() = default;
  /// Takes the envelope by rvalue: the transports always hand over a
  /// freshly built prvalue, and the hot path (one post per cross-shard
  /// message in the scale storm) shouldn't pay an extra Msg move for a
  /// by-value parameter.
  virtual void post(std::uint32_t dest_shard, SimTime arrival,
                    ShardEnvelope&& envelope) = 0;
};

/// Identifies which slice of the topology a System instance owns. The
/// default (single shard, no sink) is the legacy single-threaded mode:
/// every ownership test passes and no transport ever posts an envelope.
struct ShardSpec {
  std::uint32_t shard = 0;
  std::uint32_t n_shards = 1;
  CrossShardSink* sink = nullptr;
};

}  // namespace neutrino::core
