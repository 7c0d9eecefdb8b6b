// Reusable phase barrier for the sharded runtime's lock-step windows.
//
// std::barrier would work, but its completion-function machinery and
// libstdc++'s futex path are heavier than needed for two barriers per
// window, and we want explicit control over spinning: on a machine with
// fewer cores than worker threads (CI containers are often 1-core),
// spinning burns the very timeslice the other thread needs, so the spin
// budget follows hardware_concurrency(). Waiters spin briefly, then park
// on a condvar.
//
// The generation handshake also carries the memory-ordering obligation of
// the whole design, and is the runtime's only synchronization: every write
// a lane made before arriving (events, outbox appends, next times)
// happens-before the completion step and everything any lane does after
// leaving — each lane's drain of its own shards' outboxes, and the next
// window. Each arrival is an acq_rel RMW on count_, so the last arriver
// has acquired every earlier one before it runs the completion step;
// departure needs an acquire load of gen_ that observes the release store
// made after it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>

namespace neutrino::sim::parallel {

class PhaseBarrier {
 public:
  explicit PhaseBarrier(std::size_t participants)
      : n_(participants), spins_(spin_budget(participants)) {}

  /// Block until all `participants` threads have arrived, then release
  /// everyone. Reusable: the generation counter disambiguates phases.
  void arrive_and_wait() { arrive_and_wait([] {}); }

  /// As above, but the last thread to arrive runs `completion()` alone,
  /// before anyone is released. Returns true on that thread.
  template <class Completion>
  bool arrive_and_wait(Completion&& completion) {
    const std::uint64_t gen = gen_.load(std::memory_order_acquire);
    if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      completion();
      // Reset the count *before* bumping the generation, so a thread
      // released by the bump can immediately arrive at the next phase
      // without racing the reset.
      count_.store(0, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        gen_.store(gen + 1, std::memory_order_release);
      }
      cv_.notify_all();
      return true;
    }
    for (int i = 0; i < spins_; ++i) {
      if (gen_.load(std::memory_order_acquire) != gen) return false;
      cpu_relax();
    }
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] {
      return gen_.load(std::memory_order_acquire) != gen;
    });
    return false;
  }

 private:
  /// Parks immediately when the machine cannot actually run all
  /// participants concurrently (oversubscribed: spinning would steal the
  /// peer's timeslice).
  static int spin_budget(std::size_t participants) {
    const unsigned hw = std::thread::hardware_concurrency();
    return (hw != 0 && participants > hw) ? 0 : 4096;
  }

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  }

  const std::size_t n_;
  const int spins_;
  std::atomic<std::size_t> count_{0};
  std::atomic<std::uint64_t> gen_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace neutrino::sim::parallel
