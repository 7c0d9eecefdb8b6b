// Shared pieces of the benchmark binary. One invocation runs one
// repetition of one workload and prints its raw measurements as a JSON
// line; perfbench/run.py repeats repetitions for the requested time and
// turns them into the benchmark's metrics.
//
// Clocks: host figures (seconds, ns, MiB) time the simulator and codecs on
// the machine running the benchmark; simulated figures come from the
// modelled control plane and are bit-identical across repetitions of one
// seed (the fingerprint).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/cost_model.hpp"
#include "obs/json.hpp"

namespace neutrino::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Simulator workloads: which configuration this repetition runs
  /// (0 = the measured one; 1 and 2 are the traced run's extra variants).
  int variant = 0;
  /// Codec workload: how long this repetition measures.
  double seconds = 2.0;
  /// Record spans (and, for codec, alternate traced and untraced rounds).
  bool trace = false;
  std::string golden_dir;  // tests/golden, for the codec workload
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set of this process, in MiB.
double peak_rss_mib();

/// In-memory span log: one span per call into a layer, kept until the
/// repetition ends and then handed over with its measurements. A disabled
/// log still times its scopes (callers need the durations) but records
/// nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled)
      : enabled_(enabled), origin_(Clock::now()) {}

  class Scope {
   public:
    Scope(SpanLog& log, std::string_view name)
        : log_(log), start_(Clock::now()) {
      if (log_.enabled_) {
        index_ = static_cast<int>(log_.spans_.size());
        log_.spans_.push_back(
            Span{std::string(name), start_, start_, log_.open_});
        log_.open_ = index_;
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { stop(); }

    /// Close the span (idempotent) and return its duration in seconds.
    double stop() {
      if (!stopped_) {
        stopped_ = true;
        end_ = Clock::now();
        if (index_ >= 0) {
          Span& s = log_.spans_[static_cast<std::size_t>(index_)];
          s.end = end_;
          log_.open_ = s.parent;
        }
      }
      return std::chrono::duration<double>(end_ - start_).count();
    }

   private:
    SpanLog& log_;
    Clock::time_point start_;
    Clock::time_point end_;
    int index_ = -1;
    bool stopped_ = false;
  };

  /// [[name, parent index (-1 for none), start ns, end ns], ...], times
  /// relative to the log's creation.
  [[nodiscard]] obs::Json json() const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
  };

  bool enabled_;
  Clock::time_point origin_;
  int open_ = -1;
  std::vector<Span> spans_;
};

/// The pinned cost table the simulator workloads run on (see
/// pinned_costs.cpp for the file format).
class PinnedCostModel final : public core::CostModel {
 public:
  /// Parse a table; false (with `error` set) unless every (format, kind)
  /// pair and every format's state entry is present exactly once.
  bool parse(std::string_view text, std::string& error);
  bool load(const std::string& path, std::string& error);
  /// Snapshot any cost model through its public accessors.
  static PinnedCostModel capture(const core::CostModel& model);
  /// Canonical text form; parse(to_text()) reproduces the table exactly.
  [[nodiscard]] std::string to_text() const;
  /// FNV-1a 64 over the canonical text, as 16 hex digits.
  [[nodiscard]] std::string hash() const;

  [[nodiscard]] SimTime processing_time(ser::WireFormat format,
                                        core::MsgKind kind) const override;
  [[nodiscard]] std::size_t encoded_size(ser::WireFormat format,
                                         core::MsgKind kind) const override;
  [[nodiscard]] SimTime state_serialize_time(
      ser::WireFormat format) const override;
  [[nodiscard]] std::size_t state_encoded_size(
      ser::WireFormat format) const override;

 private:
  static constexpr std::size_t kFormats = ser::kAllWireFormats.size();
  static constexpr std::size_t kKinds =
      static_cast<std::size_t>(core::MsgKind::kOutdatedNotify) + 1;

  struct Entry {
    std::int64_t ns = 0;
    std::uint64_t bytes = 0;
  };
  [[nodiscard]] const Entry& entry(ser::WireFormat f, core::MsgKind k) const;

  std::vector<Entry> kinds_ = std::vector<Entry>(kFormats * kKinds);
  std::vector<Entry> states_ = std::vector<Entry>(kFormats);
};

/// Filename-safe codec tag, as the golden vectors under tests/golden name
/// them.
std::string_view format_slug(ser::WireFormat f);

/// One repetition of a simulator workload ("storm", "mobility-failover");
/// null for an unknown name or variant.
obs::Json run_sim_repetition(const Options& opts,
                             const PinnedCostModel& costs);
/// One repetition of the codec workload.
obs::Json run_codec_repetition(const Options& opts);

}  // namespace neutrino::perfbench
