// Wall-clock and memory instrumentation for throughput benches.
//
// The simulator's own clock measures *simulated* time; throughput numbers
// (events/sec, procedures/sec) need real elapsed time, the process's peak
// resident set and the allocator's live heap, which this header wraps
// portably enough for the bench targets (Linux is the primary platform;
// ru_maxrss units differ on macOS and are handled).
#pragma once

#include <chrono>
#include <cstddef>

#if defined(_WIN32)
// No getrusage; peak_rss_bytes() reports 0 rather than failing the build.
#else
#include <sys/resource.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace neutrino::obs {

/// Monotonic wall-clock stopwatch (steady_clock).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  void reset() { start_ = std::chrono::steady_clock::now(); }

  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Peak resident set size of this process, in bytes (0 if unavailable).
inline std::size_t peak_rss_bytes() {
#if defined(_WIN32)
  return 0;
#else
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#endif
}

/// Bytes the allocator holds in live allocations right now: glibc
/// mallinfo2()'s arena bytes in use plus mmapped chunks, summed over all
/// arenas. Unlike the RSS watermark it falls when memory is freed, so a
/// bench can read each run's own footprint before the run tears down.
/// 0 where mallinfo2() is unavailable (non-glibc, or glibc before 2.33).
inline std::size_t heap_in_use_bytes() {
#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

/// Ordering-independent RSS accounting for multi-run benches.
///
/// ru_maxrss is a process-lifetime watermark: once any run has touched N
/// bytes, every later sample reads ≥ N, so reporting the raw value made
/// row order matter (PR 5's fig_saturation had to run its unbounded
/// baseline last). RssMeter reports each run as a *delta of the
/// watermark*: how much this run pushed the peak beyond everything before
/// it. A run that stays under an earlier peak reports 0 — accurate ("did
/// not raise the peak") and the same in any order that keeps the largest
/// run largest.
class RssMeter {
 public:
  /// Capture the bench-start baseline (record it in the report config).
  RssMeter() : baseline_(peak_rss_bytes()), mark_(baseline_) {}

  [[nodiscard]] std::size_t baseline_bytes() const { return baseline_; }

  /// Call before a run: remembers the current watermark.
  void begin_run() { mark_ = peak_rss_bytes(); }

  /// Call after the run: watermark growth attributable to it (0 if the
  /// run stayed under a previously reached peak).
  [[nodiscard]] std::size_t run_delta_bytes() const {
    const std::size_t now = peak_rss_bytes();
    return now > mark_ ? now - mark_ : 0;
  }

 private:
  std::size_t baseline_;
  std::size_t mark_;
};

}  // namespace neutrino::obs
