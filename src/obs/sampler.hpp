// Bounded periodic sampling against the event loop.
//
// The loop's run() drains the queue to empty, so an unbounded
// self-rescheduling sampler would keep a simulation alive forever. This
// one plans a finite chain: it stops after `until`, and the caller
// decides what each tick observes (queue depths, log occupancy, ...).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/clock.hpp"
#include "sim/event_loop.hpp"

namespace neutrino::obs {

class PeriodicSampler {
 public:
  /// Calls `fn()` every `interval` from `interval` until `until`
  /// (inclusive). The ticks form one event stream (EventLoop::
  /// schedule_stream): their sequence numbers are reserved now, so they
  /// tie-break exactly as if all were scheduled here, but only the next
  /// tick waits in the queue. The loop owns the callback.
  static void schedule(sim::EventLoop& loop, SimTime interval, SimTime until,
                       std::function<void()> fn) {
    assert(interval.ns() > 0);
    const SimTime first = loop.now() + interval;
    const std::uint64_t ticks =
        until < first ? 0
                      : static_cast<std::uint64_t>(
                            (until - first).ns() / interval.ns()) + 1;
    loop.schedule_stream(Ticks{first, interval, ticks, std::move(fn)});
  }

 private:
  struct Ticks {
    SimTime first;
    SimTime interval;
    std::uint64_t ticks;
    std::function<void()> fn;

    [[nodiscard]] std::uint64_t size() const { return ticks; }
    [[nodiscard]] SimTime when(std::uint64_t k) const {
      return first + interval * static_cast<std::int64_t>(k);
    }
    [[nodiscard]] std::uint64_t offset(std::uint64_t k) const { return k; }
    void fire(std::uint64_t) { fn(); }
  };
};

}  // namespace neutrino::obs
