// The record-stream generators (DESIGN.md §17): every trace the simulator
// replays is made here, by one of two families.
//
// The paper's §6.1 evaluation inputs: uniform() — Poisson arrivals with an
// i.i.d. procedure mix — and wave() — a synchronized burst, one procedure
// per UE inside a short window. Each draws from one Rng in a fixed order.
//
// The empirically grounded engine, generate(). Real cellular control-plane
// traffic looks different from §6.1's — *Characterizing and Modeling
// Control-Plane Traffic for Mobile Core Network* (arXiv 2212.13248)
// measures three structural properties this engine reproduces:
//
//  * Heavy-tailed per-device inter-arrivals: device "think times" are a
//    log-normal body with a Pareto tail mixed in, not exponential — a few
//    devices produce long silences and clustered flurries.
//  * A diurnal aggregate envelope: the population-level rate follows a
//    piecewise-linear daily curve (commute ramps, event spikes, outage
//    gaps), applied by warping each device's activity clock through the
//    envelope's cumulative integral.
//  * Procedure dependency chains: each device walks a Markov chain over
//    procedure types (attach → service-request → handover ...), replacing
//    the i.i.d. mix dice of uniform().
//
// Device classes (smartphone vs massive-IoT) differ in think-time shape,
// chain, and duty cycling: an IoT class with a duty period snaps every
// arrival to the next shared wakeup slot, producing the synchronized
// report/firmware-push spikes of §6.1's bursty workload — but grounded in
// a per-device process instead of one global uniform window.
//
// Determinism: every device draws from its own Rng seeded by a SplitMix64
// hash of (seed, class, device), so generation order is irrelevant and a
// fixed EngineConfig always yields a byte-identical record stream. Class
// streams are merged with merge_sorted_records under the documented
// (at, ue, type) total order. Generation is single-threaded and up front;
// replay determinism across shard/thread counts is the runtime's existing
// guarantee (DESIGN.md §11). The generators are the only source of
// randomness a run has, apart from the chaos schedule generator.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/system.hpp"
#include "traffic/record.hpp"

namespace neutrino::traffic {

/// The region a `type` procedure from `ue` targets: the region after the
/// UE's home (ue % regions) for an inter-region handover, the home for an
/// intra-region one, 0 for everything else.
inline std::uint32_t target_region_of(core::ProcedureType type, UeId ue,
                                      std::uint32_t regions) {
  const auto home = static_cast<std::uint32_t>(ue.value() % regions);
  switch (type) {
    case core::ProcedureType::kHandover:
      return (home + 1) % regions;
    case core::ProcedureType::kIntraHandover:
      return home;
    default:
      return 0;
  }
}

/// Procedure mix of uniform() (fractions; attach gets the remainder).
struct ProcedureMix {
  double service_request = 0.0;
  double handover = 0.0;
  double intra_handover = 0.0;
};

/// §6.1 "uniform traffic to emulate a pre-specified number of control
/// procedure requests per second": Poisson arrivals at `rate_pps` up to
/// `duration`, each from the next UE of a population cycling through
/// `ue_population` ids, all drawn from one Rng(seed). Records come in
/// arrival order: two landing on the same nanosecond keep their
/// round-robin UE order, so a caller that needs the (at, ue, type) order
/// sorts.
///
/// Mix contract: the fractions apply as configured whenever the topology
/// can express them. Inter-region handover needs `regions > 1`; on a
/// single-region topology the handover mass is *renormalized into
/// intra-handover* (the nearest expressible procedure) rather than
/// silently falling through to whatever branch the dice land in — the
/// effective mix is therefore {service_request, 0, handover +
/// intra_handover} with attach keeping exactly its configured remainder.
inline std::vector<TraceRecord> uniform(double rate_pps, SimTime duration,
                                        ProcedureMix mix,
                                        std::uint64_t ue_population,
                                        int regions, std::uint64_t seed) {
  if (regions <= 1) {
    mix.intra_handover += mix.handover;
    mix.handover = 0.0;
  }
  const auto r = static_cast<std::uint32_t>(regions);
  Rng rng(seed);
  std::vector<TraceRecord> out;
  out.reserve(static_cast<std::size_t>(rate_pps * duration.sec() * 1.1));
  double t = 0.0;
  std::uint64_t next_ue = 0;
  while (true) {
    t += rng.next_exponential(1.0 / rate_pps);
    const auto at = SimTime::nanoseconds(static_cast<std::int64_t>(t * 1e9));
    if (at > duration) break;
    TraceRecord rec;
    rec.at = at;
    rec.ue = UeId(next_ue);
    next_ue = (next_ue + 1) % ue_population;
    const double dice = rng.next_double();
    if (dice < mix.service_request) {
      rec.type = core::ProcedureType::kServiceRequest;
    } else if (dice < mix.service_request + mix.handover) {
      rec.type = core::ProcedureType::kHandover;
    } else if (dice < mix.service_request + mix.handover +
                          mix.intra_handover) {
      rec.type = core::ProcedureType::kIntraHandover;
    }
    rec.target_region = target_region_of(rec.type, rec.ue, r);
    out.push_back(rec);
  }
  return out;
}

/// §6.1 "bursty traffic to emulate a large number of IoT devices sending
/// requests in a synchronized pattern": UEs 0..n-1 each issue one `type`
/// procedure at a uniform time in [start, start + window), drawn in UE
/// order from one Rng(seed) (a power-restoration or periodic-report
/// synchronization event). Returned in (at, ue, type) order; handover
/// targets follow target_region_of over `regions`.
inline std::vector<TraceRecord> wave(std::uint64_t n, core::ProcedureType type,
                                     SimTime start, SimTime window,
                                     std::uint64_t seed, int regions = 1) {
  const auto r = static_cast<std::uint32_t>(regions);
  Rng rng(seed);
  std::vector<TraceRecord> out;
  out.reserve(n);
  for (std::uint64_t ue = 0; ue < n; ++ue) {
    TraceRecord rec;
    rec.at = start + SimTime::nanoseconds(static_cast<std::int64_t>(
                         rng.next_double() * static_cast<double>(window.ns())));
    rec.ue = UeId(ue);
    rec.type = type;
    rec.target_region = target_region_of(type, rec.ue, r);
    out.push_back(rec);
  }
  sort_records(out);
  return out;
}

/// SplitMix64-style hash for per-device independent streams: the stream
/// identity is (experiment seed, class index, device index), so devices
/// can be generated in any order — or in parallel — without changing a
/// single draw.
inline std::uint64_t device_seed(std::uint64_t seed, std::uint64_t cls,
                                 std::uint64_t device) {
  std::uint64_t x = seed;
  x ^= cls * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL;
  x ^= device * 0xbf58476d1ce4e5b9ULL + 0x94d049bb133111ebULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Heavy-tailed think-time distribution: a log-normal body (shape `sigma`,
/// median calibrated by the engine from the class's target rate) mixed
/// with a Pareto tail of exponent `tail_alpha` starting at
/// `tail_xm_mult`× the body median. tail_alpha must be > 1 so the mean is
/// finite and the per-class rate calibration below is well-defined.
struct ThinkTimeConfig {
  double sigma = 1.0;
  double tail_weight = 0.05;
  double tail_alpha = 1.5;
  double tail_xm_mult = 4.0;
};

/// E[think] / median: the calibration constant that turns a target mean
/// gap into the body median. Mixture mean = (1-w)·m·e^{σ²/2} +
/// w·(xm_mult·m)·α/(α-1) for Pareto(xm, α) and log-normal(median m, σ).
inline double think_mean_multiplier(const ThinkTimeConfig& c) {
  return (1.0 - c.tail_weight) * std::exp(0.5 * c.sigma * c.sigma) +
         c.tail_weight * c.tail_xm_mult * c.tail_alpha / (c.tail_alpha - 1.0);
}

/// Draw one think time (seconds) with body median `median`.
inline double sample_think(const ThinkTimeConfig& c, double median, Rng& rng) {
  if (rng.next_double() < c.tail_weight) {
    double v;
    do {
      v = rng.next_double();
    } while (v <= 0.0);
    return median * c.tail_xm_mult * std::pow(v, -1.0 / c.tail_alpha);
  }
  // Box-Muller for the log-normal body; both uniforms are always drawn so
  // the stream position is a pure function of the draw count.
  double u1;
  do {
    u1 = rng.next_double();
  } while (u1 <= 0.0);
  const double u2 = rng.next_double();
  constexpr double kTwoPi = 6.283185307179586;
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
  return median * std::exp(c.sigma * z);
}

/// The procedure states a device's Markov chain walks over. kHandover is
/// demoted to kIntraHandover at emission time when the topology has one
/// region or inter-region mobility is disallowed (sharded runs partition
/// one region per shard; cross-shard handover targets are not legal
/// there — see parallel_determinism_test).
enum class ProcState : std::uint8_t {
  kAttach = 0,
  kServiceRequest,
  kHandover,
  kIntraHandover,
  kTau,
};
inline constexpr std::size_t kProcStates = 5;

/// Row-stochastic transition matrix over ProcState. Rows that sum to zero
/// are treated as absorbing self-loops; otherwise each row is normalized
/// by its own sum, so literals like {0.6, 0.2, 0.1, 0.1} read naturally.
struct MarkovChain {
  double p[kProcStates][kProcStates] = {};

  void set_row(ProcState from, double attach, double service, double handover,
               double intra, double tau) {
    const auto i = static_cast<std::size_t>(from);
    p[i][0] = attach;
    p[i][1] = service;
    p[i][2] = handover;
    p[i][3] = intra;
    p[i][4] = tau;
  }

  /// Same transition distribution out of every state (an i.i.d. mix as a
  /// degenerate chain) — the compatibility construction.
  static MarkovChain uniform_rows(double attach, double service,
                                  double handover, double intra, double tau) {
    MarkovChain c;
    for (std::size_t i = 0; i < kProcStates; ++i) {
      c.p[i][0] = attach;
      c.p[i][1] = service;
      c.p[i][2] = handover;
      c.p[i][3] = intra;
      c.p[i][4] = tau;
    }
    return c;
  }

  [[nodiscard]] ProcState next(ProcState from, Rng& rng) const {
    const auto i = static_cast<std::size_t>(from);
    double total = 0.0;
    for (const double v : p[i]) total += v;
    if (total <= 0.0) return from;
    double dice = rng.next_double() * total;
    for (std::size_t j = 0; j < kProcStates; ++j) {
      dice -= p[i][j];
      if (dice < 0.0) return static_cast<ProcState>(j);
    }
    return static_cast<ProcState>(kProcStates - 1);
  }
};

/// Aggregate rate envelope over the run: control points (fraction of the
/// run in [0, 1], relative level >= 0), piecewise-linear between points,
/// normalized by the engine so the mean level is 1 (the envelope shapes
/// *when* the configured volume arrives, not how much). Level-0 segments
/// are legal: no device activity maps there, and the backlog of activity
/// time re-emerges as a synchronized wave when the level recovers — the
/// region-blackout-reconnect construction.
struct DiurnalEnvelope {
  std::vector<std::pair<double, double>> points;  // (frac, level)

  /// Flat unit envelope (empty points behaves the same).
  static DiurnalEnvelope flat() { return DiurnalEnvelope{}; }

  /// Unnormalized level at `frac` in [0, 1].
  [[nodiscard]] double level_at(double frac) const {
    if (points.empty()) return 1.0;
    if (frac <= points.front().first) return points.front().second;
    for (std::size_t i = 1; i < points.size(); ++i) {
      if (frac <= points[i].first) {
        const auto& [f0, l0] = points[i - 1];
        const auto& [f1, l1] = points[i];
        const double span = f1 - f0;
        if (span <= 0.0) return l1;
        return l0 + (l1 - l0) * (frac - f0) / span;
      }
    }
    return points.back().second;
  }
};

namespace detail {

/// The envelope baked onto a fixed grid: per-cell normalized rates and
/// their cumulative integral, inverted to warp device activity time
/// (s, in seconds of unit-rate progress) into sim time.
class BakedEnvelope {
 public:
  BakedEnvelope(const DiurnalEnvelope& env, double duration_sec,
                std::size_t cells = 1024)
      : duration_(duration_sec), dt_(duration_sec / static_cast<double>(cells)) {
    rate_.resize(cells);
    double sum = 0.0;
    for (std::size_t i = 0; i < cells; ++i) {
      const double frac =
          (static_cast<double>(i) + 0.5) / static_cast<double>(cells);
      rate_[i] = std::max(0.0, env.level_at(frac));
      sum += rate_[i];
    }
    const double mean = sum / static_cast<double>(cells);
    cum_.resize(cells + 1, 0.0);
    for (std::size_t i = 0; i < cells; ++i) {
      rate_[i] = mean > 0.0 ? rate_[i] / mean : 1.0;
      cum_[i + 1] = cum_[i] + rate_[i] * dt_;
    }
    // Guard float drift: the warp's "past the end" test is exact.
    cum_.back() = duration_;
  }

  [[nodiscard]] double total() const { return duration_; }

  /// Earliest sim time t with cumulative activity >= s. Zero-rate cells
  /// contribute nothing to cum_, so s values on a flat stretch all map to
  /// the first positive-rate instant after it (the synchronized wave).
  [[nodiscard]] double warp(double s) const {
    if (s >= duration_) return duration_;
    const auto it = std::upper_bound(cum_.begin(), cum_.end(), s);
    const auto idx =
        static_cast<std::size_t>(std::distance(cum_.begin(), it)) - 1;
    const std::size_t cell = std::min(idx, rate_.size() - 1);
    const double r = rate_[cell];
    const double within = r > 0.0 ? (s - cum_[cell]) / r : 0.0;
    return static_cast<double>(cell) * dt_ + std::min(within, dt_);
  }

 private:
  double duration_;
  double dt_;
  std::vector<double> rate_;   // normalized: mean 1
  std::vector<double> cum_;    // activity time at cell boundaries
};

}  // namespace detail

/// One device population sharing think-time shape, procedure chain and
/// (optionally) a duty cycle.
struct DeviceClassConfig {
  std::string name = "default";
  /// Fraction of EngineConfig::population (normalized over all classes).
  double population_share = 1.0;
  /// Fraction of EngineConfig::target_pps (normalized over all classes).
  double rate_share = 1.0;
  ThinkTimeConfig think;
  MarkovChain chain =
      MarkovChain::uniform_rows(0.4, 0.5, 0.0, 0.1, 0.0);
  /// First procedure a device issues (kAttach for cold populations so a
  /// fresh UE registers before anything else reaches it).
  ProcState initial = ProcState::kAttach;
  /// Massive-IoT duty cycling: when period > 0, every arrival snaps
  /// forward to the class-wide wakeup grid phase + k·period (at most one
  /// arrival per device per slot), so the whole class reports in
  /// synchronized spikes.
  SimTime duty_period{};
  SimTime duty_phase{};
};

struct EngineConfig {
  double target_pps = 1000.0;
  SimTime duration = SimTime::seconds(10);
  std::uint64_t population = 10'000;
  int regions = 1;
  /// Emit kHandover (target (home+1) % regions) instead of demoting to
  /// kIntraHandover. Only legal when every region lives on one shard —
  /// keep false for partitioned topologies.
  bool allow_inter_region = false;
  std::uint64_t seed = 1;
  DiurnalEnvelope envelope;
  std::vector<DeviceClassConfig> classes = {DeviceClassConfig{}};
};

/// Per-class accounting of the generated stream (report "arrivals"
/// sections; the validator checks the counts sum to the total).
struct ClassArrivals {
  std::string name;
  std::uint64_t ue_base = 0;   // class owns UEs [ue_base, ue_base + ue_count)
  std::uint64_t ue_count = 0;
  std::uint64_t count = 0;     // records emitted
};

struct GeneratedTraffic {
  std::vector<TraceRecord> records;  // (at, ue, type)-sorted
  std::vector<ClassArrivals> per_class;

  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t n = 0;
    for (const ClassArrivals& c : per_class) n += c.count;
    return n;
  }
};

/// Generate the full record stream for one EngineConfig. Pure function of
/// the config (bitwise-deterministic); see the file comment.
inline GeneratedTraffic generate(const EngineConfig& cfg) {
  GeneratedTraffic out;
  if (cfg.classes.empty() || cfg.population == 0 ||
      cfg.duration.ns() <= 0 || cfg.target_pps <= 0.0) {
    return out;
  }
  const double duration_sec = cfg.duration.sec();
  const detail::BakedEnvelope baked(cfg.envelope, duration_sec);

  double pop_total = 0.0;
  double rate_total = 0.0;
  for (const DeviceClassConfig& c : cfg.classes) {
    pop_total += std::max(0.0, c.population_share);
    rate_total += std::max(0.0, c.rate_share);
  }
  if (pop_total <= 0.0 || rate_total <= 0.0) return out;

  const auto regions = static_cast<std::uint32_t>(std::max(1, cfg.regions));
  std::vector<std::vector<TraceRecord>> streams;
  streams.reserve(cfg.classes.size());
  std::uint64_t ue_base = 0;
  for (std::size_t ci = 0; ci < cfg.classes.size(); ++ci) {
    const DeviceClassConfig& cls = cfg.classes[ci];
    // Last class absorbs the rounding remainder so ue ranges tile the
    // population exactly.
    const std::uint64_t n_devices =
        ci + 1 == cfg.classes.size()
            ? cfg.population - ue_base
            : std::min<std::uint64_t>(
                  cfg.population - ue_base,
                  static_cast<std::uint64_t>(
                      static_cast<double>(cfg.population) *
                          std::max(0.0, cls.population_share) / pop_total +
                      0.5));
    ClassArrivals acct;
    acct.name = cls.name;
    acct.ue_base = ue_base;
    acct.ue_count = n_devices;
    std::vector<TraceRecord> stream;
    if (n_devices > 0) {
      const double class_pps =
          cfg.target_pps * std::max(0.0, cls.rate_share) / rate_total;
      // Mean think gap per device, in activity-time seconds; the envelope
      // warp preserves total volume (mean level 1), so the aggregate rate
      // averages class_pps over the run.
      const double mean_gap = class_pps > 0.0
                                  ? static_cast<double>(n_devices) / class_pps
                                  : 0.0;
      if (mean_gap > 0.0) {
        const double median = mean_gap / think_mean_multiplier(cls.think);
        stream.reserve(static_cast<std::size_t>(
            class_pps * duration_sec * 1.2 + 16.0));
        const double period_sec = cls.duty_period.sec();
        const double phase_sec = cls.duty_phase.sec();
        for (std::uint64_t d = 0; d < n_devices; ++d) {
          Rng rng(device_seed(cfg.seed, ci, d));
          const UeId ue{ue_base + d};
          ProcState state = cls.initial;
          // Random-phase start: the first arrival lands uniformly inside
          // one mean gap of activity time, so a window much shorter than
          // the gap still sees the class's configured aggregate rate
          // (a cold start at a full think() draw would underdeliver —
          // heavy-tailed think times have near-zero density at 0).
          double s = rng.next_double() * mean_gap;
          std::int64_t last_slot = -1;
          while (true) {
            const double t = baked.warp(s);
            if (t >= duration_sec) break;
            SimTime at = SimTime::nanoseconds(
                static_cast<std::int64_t>(t * 1e9) + 1);
            if (period_sec > 0.0) {
              // Snap forward to the class wakeup grid; one arrival per
              // device per slot (sleep until the next window otherwise).
              auto slot = static_cast<std::int64_t>(
                  std::ceil((t - phase_sec) / period_sec));
              if (slot <= last_slot) slot = last_slot + 1;
              last_slot = slot;
              const double snapped =
                  phase_sec + static_cast<double>(slot) * period_sec;
              if (snapped >= duration_sec) break;
              at = SimTime::nanoseconds(
                  static_cast<std::int64_t>(snapped * 1e9) + 1);
            }
            TraceRecord rec;
            rec.at = at;
            rec.ue = ue;
            switch (state) {
              case ProcState::kAttach:
                rec.type = core::ProcedureType::kAttach;
                break;
              case ProcState::kServiceRequest:
                rec.type = core::ProcedureType::kServiceRequest;
                break;
              case ProcState::kHandover:
                rec.type = cfg.allow_inter_region && regions > 1
                               ? core::ProcedureType::kHandover
                               : core::ProcedureType::kIntraHandover;
                break;
              case ProcState::kIntraHandover:
                rec.type = core::ProcedureType::kIntraHandover;
                break;
              case ProcState::kTau:
                rec.type = core::ProcedureType::kTau;
                break;
            }
            rec.target_region = target_region_of(rec.type, ue, regions);
            stream.push_back(rec);
            state = cls.chain.next(state, rng);
            s += sample_think(cls.think, median, rng);
          }
        }
      }
    }
    sort_records(stream);
    acct.count = stream.size();
    out.per_class.push_back(std::move(acct));
    streams.push_back(std::move(stream));
    ue_base += n_devices;
  }
  out.records = merge_sorted_records(std::move(streams));
  return out;
}

}  // namespace neutrino::traffic
