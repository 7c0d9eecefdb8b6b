// core::StateRef, the 8-byte handle every replica and replication message
// holds a UE state snapshot by (core/ue_state.hpp): handle semantics, the
// box's lifetime (a counting operator new, as in sim_core_test), and
// copy-on-write at the CPF: a shared snapshot is cloned before a write,
// an unshared one is written in place. The record sizes are pinned by
// static_asserts beside their types.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/system.hpp"

// Global allocation counters (atomic: one test releases on four
// threads). The default operator new[] forwards here, so array news are
// counted too. `g_watched` names one block whose frees are counted.
namespace {
std::atomic<std::uint64_t> g_news{0};
std::atomic<std::size_t> g_last_new_size{0};
std::atomic<const void*> g_watched{nullptr};
std::atomic<std::uint64_t> g_watched_frees{0};

void count_free(const void* p) {
  if (p != nullptr && p == g_watched.load(std::memory_order_relaxed)) {
    g_watched_frees.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

// GCC can't see that this new/delete pair is internally consistent
// (malloc in, free out) and warns at inlined call sites.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_last_new_size.store(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept {
  count_free(p);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  count_free(p);
  std::free(p);
}

namespace neutrino::core {
namespace {

UeState sample_state(std::uint32_t proc) {
  UeState s;
  s.last_completed_proc = proc;
  s.last_lclock = 100 + proc;
  s.serving_region = 3;
  return s;
}

TEST(StateRef, CopyMoveResetAndUseCount) {
  StateRef empty;
  EXPECT_FALSE(empty);
  EXPECT_EQ(empty.get(), nullptr);
  EXPECT_EQ(empty.use_count(), 0u);

  StateRef a(sample_state(1));
  ASSERT_TRUE(a);
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(a->last_completed_proc, 1u);
  EXPECT_EQ((*a).last_lclock, 101u);

  StateRef b = a;  // copy shares the box
  EXPECT_EQ(b.get(), a.get());
  EXPECT_EQ(a.use_count(), 2u);

  StateRef c = std::move(b);  // move hands the reference over
  EXPECT_FALSE(b);            // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.get(), a.get());
  EXPECT_EQ(a.use_count(), 2u);

  StateRef d(sample_state(2));
  d = c;  // copy-assign releases d's own box
  EXPECT_EQ(d.get(), a.get());
  EXPECT_EQ(a.use_count(), 3u);
  d = std::move(c);
  EXPECT_FALSE(c);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.use_count(), 2u);
  d = d;  // self-assignment keeps the reference
  EXPECT_EQ(a.use_count(), 2u);

  d.reset();
  EXPECT_FALSE(d);
  EXPECT_EQ(a.use_count(), 1u);
  d.reset();  // resetting an empty handle is a no-op
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(a->last_completed_proc, 1u);
}

/// Counts the frees of `ref`'s box from here on (the state is the box's
/// first member, so its address is the box's).
void watch_box(const StateRef& ref) {
  g_watched_frees.store(0);
  g_watched.store(ref.get());
}

TEST(StateRef, LastReleaseFreesTheBox) {
  const std::uint64_t news0 = g_news.load();
  StateRef a(sample_state(1));
  const std::uint64_t news = g_news.load() - news0;
  const std::size_t box_bytes = g_last_new_size.load();
  watch_box(a);
  StateRef b = a;
  StateRef c = b;
  StateRef d = std::move(c);
  const std::uint64_t news_after_copies = g_news.load() - news0;
  a.reset();
  b.reset();
  const std::uint64_t frees_before_last = g_watched_frees.load();
  d.reset();  // the last handle
  const std::uint64_t frees_after_last = g_watched_frees.load();
  g_watched.store(nullptr);

  EXPECT_EQ(news, 1u);                // one box per snapshot
  EXPECT_LE(box_bytes, 56u);          // state + count: a 64-byte chunk
  EXPECT_EQ(news_after_copies, 1u);   // copies and moves never allocate
  EXPECT_EQ(frees_before_last, 0u);
  EXPECT_EQ(frees_after_last, 1u);
}

TEST(StateRef, ReleasesOnManyThreadsFreeTheBoxOnce) {
  // Handles cross shards inside messages and die on whichever lane holds
  // them last: four threads release copies of one box at once. Under
  // TSan this also checks the count's ordering.
  StateRef a(sample_state(1));
  watch_box(a);
  std::atomic<std::uint64_t> read{0};
  std::vector<std::thread> lanes;
  for (int i = 0; i < 4; ++i) {
    lanes.emplace_back([copy = a, &read]() mutable {
      read.fetch_add(copy->last_completed_proc);
      copy.reset();
    });
  }
  a.reset();
  for (std::thread& t : lanes) t.join();
  const std::uint64_t frees = g_watched_frees.load();
  g_watched.store(nullptr);
  EXPECT_EQ(read.load(), 4u);
  EXPECT_EQ(frees, 1u);
}

TEST(StateRef, MutateOfASharedSnapshotAbortsInEveryBuild) {
  StateRef a(sample_state(1));
  a.mutate().last_completed_proc = 2;  // unshared: writable
  EXPECT_EQ(a->last_completed_proc, 2u);
  const StateRef published = a;
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH((void)a.mutate(), "only an unshared one may be written");
}

/// Keeps every envelope a shard posts.
struct RecordingSink final : CrossShardSink {
  std::vector<std::tuple<std::uint32_t, SimTime, ShardEnvelope>> posts;

  void post(std::uint32_t dest_shard, SimTime arrival,
            ShardEnvelope&& envelope) override {
    posts.emplace_back(dest_shard, arrival, std::move(envelope));
  }
};

TEST(StateRef, CheckpointKeepsItsSnapshotAcrossThePrimarysNextWrite) {
  // Two level-1 regions on two shards: the UE's primary is in region 0
  // (shard 0, run here) and its backups in region 1, so every checkpoint
  // the primary sends lands in the sink as it left the CPF.
  sim::EventLoop loop;
  FixedCostModel costs;
  Metrics metrics;
  RecordingSink sink;
  System system(loop, neutrino_policy(),
                TopologyConfig{.l1_per_l2 = 2, .latency = {}},
                ProtocolConfig{}, costs, metrics, ShardSpec{0, 2, &sink});
  const UeId ue{7};
  system.frontend().preattach(ue, 0);
  const CpfId primary = system.primary_cpf_for(ue, 0);

  system.frontend().start_procedure(ue, ProcedureType::kServiceRequest);
  loop.run_until(SimTime::milliseconds(50));
  ASSERT_EQ(metrics.procedures_completed, 1u);
  const auto sent = std::find_if(
      sink.posts.begin(), sink.posts.end(), [](const auto& post) {
        return std::get<2>(post).msg.kind == MsgKind::kStateCheckpoint;
      });
  ASSERT_NE(sent, sink.posts.end());
  const Msg ckpt = std::get<2>(*sent).msg;  // sink.posts grows below
  ASSERT_TRUE(ckpt.state);
  EXPECT_EQ(ckpt.state.get(), system.cpf(primary).peek_state(ue));
  const UeState before = *ckpt.state;
  EXPECT_EQ(before.last_completed_proc, 2u);

  // The next procedure writes the primary's state again.
  system.frontend().start_procedure(ue, ProcedureType::kServiceRequest);
  loop.run_until(SimTime::milliseconds(100));
  ASSERT_EQ(metrics.procedures_completed, 2u);
  const UeState* now = system.cpf(primary).peek_state(ue);
  ASSERT_NE(now, nullptr);
  EXPECT_EQ(now->last_completed_proc, 3u);
  EXPECT_NE(now, ckpt.state.get());  // the write went to a fresh box

  // The checkpoint still holds the snapshot it was sent with.
  EXPECT_EQ(ckpt.state->last_completed_proc, before.last_completed_proc);
  EXPECT_EQ(ckpt.state->last_lclock, before.last_lclock);
  EXPECT_EQ(ckpt.state->serving_region, before.serving_region);
  EXPECT_EQ(ckpt.state->session_active, before.session_active);
  EXPECT_EQ(ckpt.proc_seq, ckpt.state->last_completed_proc);
}

TEST(StateRef, UnsharedSnapshotIsWrittenInPlace) {
  // Two regions on two shards again: UE 8 homes in region 0 (8 mod 2)
  // and its backups sit in region 1, so its checkpoints land in the sink.
  sim::EventLoop loop;
  FixedCostModel costs;
  Metrics metrics;
  RecordingSink sink;
  System system(loop, neutrino_policy(),
                TopologyConfig{.l1_per_l2 = 2, .latency = {}},
                ProtocolConfig{}, costs, metrics, ShardSpec{0, 2, &sink});
  const UeId ue{8};
  const CpfId primary = system.primary_cpf_for(ue, 0);
  const auto checkpoint = [&sink] {
    return std::find_if(
        sink.posts.begin(), sink.posts.end(), [](const auto& post) {
          return std::get<2>(post).msg.kind == MsgKind::kStateCheckpoint;
        });
  };

  // The attach request creates the snapshot; nothing else holds it until
  // the checkpoint leaves, so both of the attach's writes (session
  // created, attach complete) land in that same box.
  system.frontend().start_procedure(ue, ProcedureType::kAttach);
  const UeState* box = nullptr;
  while (checkpoint() == sink.posts.end()) {
    ASSERT_FALSE(loop.empty());
    loop.run_until(loop.next_time());
    const UeState* now = system.cpf(primary).peek_state(ue);
    if (box == nullptr) box = now;
    ASSERT_EQ(now, box) << "an unshared snapshot was cloned";
  }
  ASSERT_NE(box, nullptr);
  EXPECT_TRUE(box->attached);
  EXPECT_TRUE(box->session_active);
  const Msg ckpt = std::get<2>(*checkpoint()).msg;
  EXPECT_EQ(ckpt.state.get(), box);
  ASSERT_GE(ckpt.state.use_count(), 2u);

  // The checkpoint shares the box, so the next write clones it.
  system.frontend().start_procedure(ue, ProcedureType::kServiceRequest);
  loop.run_until(loop.now() + SimTime::milliseconds(50));
  ASSERT_EQ(metrics.procedures_completed, 2u);
  const UeState* now = system.cpf(primary).peek_state(ue);
  ASSERT_NE(now, nullptr);
  EXPECT_NE(now, box);
  EXPECT_EQ(now->last_completed_proc, ckpt.proc_seq + 1);
  EXPECT_EQ(ckpt.state->last_completed_proc, ckpt.proc_seq);
}

}  // namespace
}  // namespace neutrino::core
