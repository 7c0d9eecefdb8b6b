// Message transport (DESIGN.md §10/§11): every link reaches its node's
// entry point through one dispatch, locally and across shards, with the
// alive gates applied at arrival; a message dies with its event or job.
#include <gtest/gtest.h>

#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include "core/system.hpp"

namespace neutrino::core {
namespace {

using Dest = ShardEnvelope::Dest;
using Hook = std::function<void(System&)>;

constexpr UeId kUe{7};
constexpr std::uint32_t kFar = 1;  // every probe's destination region
const CpfId kNearCpf{0};           // first CPF of region 0
const CpfId kFarCpf{5};            // first CPF of region 1

/// Keeps every envelope a shard posts, for the test to deliver by hand.
struct RecordingSink final : CrossShardSink {
  std::vector<std::tuple<std::uint32_t, SimTime, ShardEnvelope>> posts;

  void post(std::uint32_t dest_shard, SimTime arrival,
            ShardEnvelope&& envelope) override {
    posts.emplace_back(dest_shard, arrival, std::move(envelope));
  }
};

/// Two level-1 regions 400 µs apart; shard `shard` of `shards` on its own
/// loop (one shard owns both regions and posts nothing).
struct Node {
  Node(std::uint32_t shard, std::uint32_t shards)
      : system(loop, neutrino_policy(),
               TopologyConfig{.l1_per_l2 = 2, .latency = {}},
               ProtocolConfig{}, costs, metrics,
               ShardSpec{shard, shards, shards > 1 ? &sink : nullptr}) {
    system.frontend().preattach_context(kUe, kFar);
  }

  sim::EventLoop loop;
  FixedCostModel costs;
  Metrics metrics;
  RecordingSink sink;
  System system;
};

/// One destination kind: a message with a visible effect there, the link
/// that carries it from region 0 to region kFar, and that effect.
struct Probe {
  Dest dest;
  MsgKind kind;
  void (*send)(System&, Msg);
  bool (*arrived)(Node&);
};

const Probe kProbes[] = {
    {Dest::kUe, MsgKind::kPaging,
     [](System& s, Msg m) { s.cta_to_ue(std::move(m)); },
     // An attached idle UE answers a page with a service request.
     [](Node& n) { return n.metrics.procedures_started.value() == 1; }},
    {Dest::kCtaUplink, MsgKind::kServiceRequest,
     [](System& s, Msg m) { s.upf_to_cta(kFar, std::move(m)); },
     [](Node& n) { return n.metrics.log_appends.value() == 1; }},
    {Dest::kCtaDownlink, MsgKind::kCheckpointAck,
     [](System& s, Msg m) { s.cpf_to_cta(kNearCpf, kFar, std::move(m)); },
     [](Node& n) { return n.metrics.checkpoint_acks.value() == 1; }},
    {Dest::kCpf, MsgKind::kStateCheckpoint,
     [](System& s, Msg m) { s.cta_to_cpf(0, kFarCpf, std::move(m)); },
     [](Node& n) {
       return n.system.cpf(kFarCpf).peek_state(kUe) != nullptr;
     }},
    {Dest::kUpf, MsgKind::kCreateSession,
     [](System& s, Msg m) { s.cpf_to_upf(kNearCpf, kFar, std::move(m)); },
     [](Node& n) { return n.system.upf(kFar).has_session(kUe); }},
};

Msg probe_msg(MsgKind kind) {
  Msg m;
  m.kind = kind;
  m.ue = kUe;
  m.proc_seq = 1;
  m.region = kFar;
  m.src_cpf = kNearCpf;
  m.state = Frontend::make_preattached_state(kFar);
  return m;
}

/// Send `p`'s message from region 0 and run the receiver to 2 ms, calling
/// `at_send` on it at the send and `in_flight` 1 µs later (every link takes
/// ≥ 5 µs). Across shards, shard 1 takes shard 0's post; UE↔CTA links
/// abort across shards, so the UE's envelope is built by hand.
bool arrives(const Probe& p, bool across, const Hook& at_send = {},
             const Hook& in_flight = {}) {
  Node from(0, across ? 2 : 1);
  Node to(1, 2);
  Node& dst = across ? to : from;
  if (at_send) at_send(dst.system);
  if (!across) {
    p.send(from.system, probe_msg(p.kind));
  } else if (p.dest == Dest::kUe) {
    to.system.deliver_envelope(SimTime::microseconds(10),
                               {Dest::kUe, kFar, probe_msg(p.kind)});
  } else {
    p.send(from.system, probe_msg(p.kind));
    EXPECT_TRUE(from.loop.empty());  // nothing left on the sender's loop
    EXPECT_EQ(from.sink.posts.size(), 1u);
    auto& [shard, arrival, envelope] = from.sink.posts.at(0);
    EXPECT_EQ(shard, 1u);
    EXPECT_EQ(envelope.dest, p.dest);
    to.system.deliver_envelope(arrival, std::move(envelope));
  }
  if (in_flight) {
    dst.loop.schedule_at(SimTime::microseconds(1),
                         [&] { in_flight(dst.system); });
  }
  dst.loop.run_until(SimTime::milliseconds(2));
  return p.arrived(dst);
}

TEST(Transport, EveryDestReachesItsEntryPointLocallyAndAcrossShards) {
  for (const Probe& p : kProbes) {
    SCOPED_TRACE(static_cast<int>(p.dest));
    EXPECT_TRUE(arrives(p, /*across=*/false));
    EXPECT_TRUE(arrives(p, /*across=*/true));
  }
}

TEST(Transport, AliveGatesApplyAtArrival) {
  const Hook crash_cta = [](System& s) { s.cta(kFar).crash(); };
  const Hook crash_cpf = [](System& s) { s.cpf(kFarCpf).crash(); };
  const Hook restore_cpf = [](System& s) { s.cpf(kFarCpf).restore(); };
  for (const bool across : {false, true}) {
    SCOPED_TRACE(across);
    // Dead at arrival: dropped. (The UE and the UPF have no liveness.)
    EXPECT_FALSE(arrives(kProbes[1], across, {}, crash_cta));
    EXPECT_FALSE(arrives(kProbes[2], across, {}, crash_cta));
    EXPECT_FALSE(arrives(kProbes[3], across, {}, crash_cpf));
    // Down at the send, restored before arrival: delivered.
    EXPECT_TRUE(arrives(kProbes[3], across, crash_cpf, restore_cpf));
  }
}

TEST(Transport, CpfCrashFreesTheSnapshotsItsQueuedMessagesHeld) {
  // Checkpoints wait on the CPF's one sync core; the crash drops every
  // job, and each job's message held one reference to the snapshot.
  Node n(0, 1);
  const Msg checkpoint = probe_msg(MsgKind::kStateCheckpoint);
  Cpf& cpf = n.system.cpf(kFarCpf);
  constexpr std::uint32_t kJobs = 4;
  for (std::uint32_t i = 0; i < kJobs; ++i) cpf.deliver(checkpoint);
  ASSERT_EQ(cpf.sync_depth(), std::size_t{kJobs});
  const std::uint32_t held = checkpoint.state.use_count();
  EXPECT_EQ(held, 1 + kJobs);
  n.system.crash_cpf(kFarCpf);
  EXPECT_EQ(checkpoint.state.use_count(), held - kJobs);
  n.loop.run_until(SimTime::milliseconds(2));  // stale completions no-op
  EXPECT_EQ(cpf.peek_state(kUe), nullptr);
}

}  // namespace
}  // namespace neutrino::core
