// Multi-core FIFO processing resource.
//
// Models one network function's worker cores (a CPF request core, a CTA
// consumer thread): jobs are served in arrival order by the earliest-free
// core; queueing delay emerges when the offered load exceeds capacity —
// this is what produces the paper's "saturation regions" (§6.3).
//
// Past the saturation knee a real node does not queue forever: its ingress
// queue is bounded and excess work is dropped at admission. set_capacity()
// turns that on (DESIGN.md §13): admits() then refuses jobs once the pool
// holds `capacity` jobs — and refuses *new attaches* earlier, at
// `attach_limit`, so the outage-sensitive classes (handover, service
// request, in-flight procedure traffic) keep headroom the way §3's
// sensitivity ordering demands. The caller asks admits() before it builds
// a job and records a refusal with count_drop() (System::admit does both
// for the CTA and CPF ingresses); submit() itself never rejects, so work
// that must never be shed (responses, replication) skips the question.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <vector>

#include "common/clock.hpp"
#include "common/flat_hash_map.hpp"
#include "sim/event_loop.hpp"

namespace neutrino::sim {

/// Admission class of a job offered to a bounded pool. Ordering mirrors
/// the paper's §3 outage sensitivity: handovers and service requests ride
/// the full queue; new attaches are shed first (they have no state to
/// lose and the UE retries with backoff).
enum class JobClass : std::uint8_t {
  kControl = 0,   // in-flight procedure traffic — full capacity
  kHandover = 1,  // full capacity (an expiring coverage grace behind it)
  kService = 2,   // full capacity (paging responses, app traffic)
  kAttach = 3,    // new attach — admitted only below attach_limit
};
inline constexpr std::size_t kJobClasses = 4;

class ServerPool {
 public:
  ServerPool(EventLoop& loop, int cores)
      : loop_(&loop), core_free_(static_cast<std::size_t>(cores)) {
    assert(cores > 0);
  }

  /// Bound the queue: at most `capacity` jobs queued + in service, with
  /// kAttach admitted only while the pool holds fewer than `attach_limit`
  /// jobs. capacity == 0 restores the unbounded legacy model.
  void set_capacity(std::size_t capacity, std::size_t attach_limit) {
    capacity_ = capacity;
    attach_limit_ = std::min(attach_limit, capacity);
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Would a job of this class be admitted right now?
  [[nodiscard]] bool admits(JobClass cls) const {
    if (capacity_ == 0) return true;
    const std::size_t limit =
        cls == JobClass::kAttach ? attach_limit_ : capacity_;
    return inflight_ < limit;
  }

  /// Record a rejection decided by the caller (admits() checked first so
  /// the job — and its tracing — is never materialized).
  void count_drop(JobClass cls) { ++drops_[static_cast<std::size_t>(cls)]; }

  /// Enqueue a job taking `service` time; `done` fires at completion.
  /// Returns the completion time. Never rejects — check admits() first
  /// for load-sheddable work.
  SimTime submit(SimTime service, EventLoop::Callback done) {
    // Earliest-free core serves the job (FIFO across the pool).
    auto it = std::min_element(core_free_.begin(), core_free_.end());
    const SimTime start = std::max(*it, loop_->now());
    const SimTime finish = start + service;
    *it = finish;
    const std::uint64_t my_generation = generation_;
    ++inflight_;
    peak_depth_ = std::max(peak_depth_, inflight_);
    // The callback parks in a slot map so the scheduled event captures
    // only {this, id, generation} (24 bytes — inline in the event loop).
    // Capturing the InlineTask itself would nest one task inside another
    // and overflow the inline buffer.
    const std::uint64_t id = next_job_id_++;
    tasks_.try_emplace(id, std::move(done));
    loop_->schedule_at(finish, [this, id, my_generation] {
      // Generation fence: reset() (crash) bumps generation_ and drops all
      // parked callbacks, so a completion scheduled before the crash must
      // no-op here. Work lost this way is NOT redelivered by the pool —
      // redriving is the caller's job (the overload path retransmits
      // dropped/timed-out procedures from the UE side), and a re-driven
      // job is a fresh submission under the new generation with its own
      // slot id, so it delivers exactly once regardless of how many stale
      // completions from the old incarnation still sit in the event loop.
      if (my_generation != generation_) return;
      --inflight_;
      const auto it = tasks_.find(id);
      assert(it != tasks_.end());
      EventLoop::Callback cb = std::move(it->second);
      tasks_.erase(it);
      cb();
    });
    busy_accum_ += service;
    ++jobs_;
    max_backlog_ = std::max(max_backlog_, finish - loop_->now());
    return finish;
  }

  /// Current queueing delay a newly arriving job would see.
  [[nodiscard]] SimTime backlog() const {
    const SimTime earliest =
        *std::min_element(core_free_.begin(), core_free_.end());
    return std::max(SimTime{}, earliest - loop_->now());
  }

  /// Jobs submitted but not yet completed (queued + in service).
  [[nodiscard]] std::size_t queue_depth() const { return inflight_; }
  /// High-watermark of queue_depth() over the pool's lifetime (survives
  /// reset(): the crash does not erase that the depth was reached).
  [[nodiscard]] std::size_t peak_depth() const { return peak_depth_; }

  /// Jobs rejected at admission, per class / total (bounded pools only).
  [[nodiscard]] std::uint64_t drops(JobClass cls) const {
    return drops_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] std::uint64_t dropped_total() const {
    std::uint64_t total = 0;
    for (const std::uint64_t d : drops_) total += d;
    return total;
  }

  /// Snapshot for occupancy samplers (obs time series).
  struct Occupancy {
    std::size_t depth = 0;  // jobs queued or in service
    SimTime backlog;        // delay a new arrival would see
  };
  [[nodiscard]] Occupancy occupancy() const { return {inflight_, backlog()}; }

  /// Drop all queued work, destroying its callbacks and what they own (a
  /// queued message), and invalidate in-flight completions (crash).
  /// Capacity limits and drop/peak statistics survive — only the work
  /// dies. See the generation-fence comment in submit() for how post-reset
  /// retries of the lost jobs interact with stale completions.
  void reset() {
    ++generation_;
    inflight_ = 0;
    tasks_.clear();
    std::fill(core_free_.begin(), core_free_.end(), SimTime{});
  }

  [[nodiscard]] int cores() const {
    return static_cast<int>(core_free_.size());
  }
  [[nodiscard]] std::uint64_t jobs_served() const { return jobs_; }
  [[nodiscard]] SimTime busy_time() const { return busy_accum_; }
  [[nodiscard]] SimTime max_backlog() const { return max_backlog_; }

 private:
  EventLoop* loop_;
  std::vector<SimTime> core_free_;
  FlatHashMap<std::uint64_t, EventLoop::Callback> tasks_;
  std::uint64_t next_job_id_ = 0;
  std::uint64_t generation_ = 0;
  std::size_t inflight_ = 0;
  std::size_t peak_depth_ = 0;
  std::size_t capacity_ = 0;      // 0 = unbounded
  std::size_t attach_limit_ = 0;  // kAttach threshold when bounded
  std::array<std::uint64_t, kJobClasses> drops_{};
  std::uint64_t jobs_ = 0;
  SimTime busy_accum_;
  SimTime max_backlog_;
};

}  // namespace neutrino::sim
