// City-scale UE mobility over the multi-region geohash grid (DESIGN.md §18).
//
// The scenario library (§17) shapes *when* procedures arrive; nothing in it
// models *movement* — fig11's handovers come from a stationary mix, so the
// FastHandover tail behavior the paper claims (§4.3, 7x median PCT) was
// never stressed by the workload that actually produces handovers. This
// engine closes that gap with deterministic per-UE trajectories:
//
//  * The service area is a Morton-ordered 2^k x 2^k grid of square level-1
//    cells (pitch L meters). Region index == the numeric value of the
//    2-bit-per-char geohash within the area, so lexicographic RegionPlan
//    order, TopologyConfig::l2_of(i) == i/4 and the sharded runtime's
//    contiguous region blocks all agree with the geography (geo_test
//    pins the equivalence against RegionPlan::from_area).
//  * Commuters shuttle between a home anchor (inside their preattach home
//    cell, home = ue % regions) and a work anchor drawn anywhere in their
//    shard block, walking straight legs at a speed class (pedestrian
//    1.4 m/s, vehicular 13.9 m/s) and dwelling at each anchor with the
//    §17 heavy-tailed think-time draw. First departures cluster in a
//    commute wave (gaussian around wave_center_frac of the run).
//  * Edge oscillators sit a few hysteresis-widths from an interior cell
//    boundary and make perpendicular excursions across it; excursions
//    deeper than the hysteresis band emit a handover out and a handover
//    back (a ping-pong pair), shallower ones are absorbed (counted as
//    suppressed_excursions).
//
// A trajectory emits TraceRecord{at, ue, kHandover, target} exactly
// when it exits the serving cell's hysteresis-expanded rectangle — the
// point is then >= hysteresis_m inside the neighbor, the standard A3-offset
// construction. Records are (at, ue, type)-sorted, so the stream merges
// deterministically with any engine-generated background traffic.
//
// Validation (the arXiv 1607.06439 C/U-split mobility analysis): for speed
// v over square cells of side L (BS density lambda = 1/L^2), the boundary
// crossing rate of an isotropically moving UE in an *unbounded* network is
//
//     H = (4/pi) * v * sqrt(lambda) = (4/pi) * v / L.
//
// A finite shard block departs from that in three exactly-computable ways,
// which the engine folds into MobilityStats::block_correction (kappa):
//
//  1. Boundary truncation. An n-cell-wide axis has only n-1 interior
//     boundaries; for endpoints uniform on [0, n] cells the expected
//     crossings per leg are (n^2-1)/(3n) instead of the unbounded E|dx|/L
//     = n/3 — a factor (1 - 1/n^2) per axis (0.9375 at n=4, 0.75 at n=2).
//     The engine computes the exact sum 2F(1-F) over the block's interior
//     grid lines, which also absorbs the anchor-margin shrink.
//  2. Direction mix. The closed form assumes isotropic headings, i.e.
//     E[|dx|+|dy|] / E[len] = 4/pi. Uniform endpoint pairs in a W x H
//     rectangle give E[manhattan] = (W+H)/3 and E[len] from the classical
//     rectangle mean-distance formula (Ghosh 1951) — within 0.5% of 4/pi
//     for a square, ~-2.4% for a 2:1 block.
//  3. Hysteresis absorption. Each leg start pays ~h per active axis to
//     exit the expanded serving rectangle: ~2h/L expected crossings lost
//     per leg (~2.6% at h=25 m over a 2x4 km block).
//
// Measured / (predicted * kappa) lands within ~2% at converged durations;
// the documented tolerance is 10% (mobility_test pins it, fig_mobility
// re-checks it at city scale). Edge oscillators are excluded — their legs
// are shorter than a cell, outside the model's regime.
//
// Determinism: every UE draws from Rng(device_seed(seed, class, ue)) and
// trajectories are generated independently, so generation order is
// irrelevant and a fixed MobilityConfig yields a byte-identical stream.
// Confinement: anchors stay >= max(2*hysteresis, 8) m inside the UE's
// shard-block bounding box, so no trajectory — and therefore no handover
// target — ever leaves the block, keeping the stream legal on sharded
// runtimes with `shard_blocks` shards.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "traffic/engine.hpp"
#include "traffic/record.hpp"

namespace neutrino::traffic {

/// Morton-ordered square grid of level-1 cells. Row 0 is the southern
/// edge, column 0 the western; index bit 2i+1 is column bit i (the
/// longitude bit of geohash char k-1-i), index bit 2i is row bit i.
struct MobilityGrid {
  std::uint32_t dim = 0;     // cells per side (power of two)
  double pitch_m = 1000.0;   // cell side L

  /// Grid for `regions` = 4^k cells; dim 0 (empty grid) when regions is
  /// not a power of four or is < 4 — callers treat that as "no mobility".
  static MobilityGrid make(std::uint32_t regions, double pitch_m) {
    MobilityGrid g;
    g.pitch_m = pitch_m;
    std::uint32_t dim = 1;
    while (dim * dim < regions && dim < (1u << 15)) dim *= 2;
    if (regions >= 4 && dim * dim == regions) g.dim = dim;
    return g;
  }

  [[nodiscard]] std::uint32_t regions() const { return dim * dim; }

  [[nodiscard]] std::uint32_t index_of(std::uint32_t row,
                                       std::uint32_t col) const {
    std::uint32_t idx = 0;
    for (std::uint32_t bit = 0; (1u << bit) < dim; ++bit) {
      idx |= ((row >> bit) & 1u) << (2 * bit);
      idx |= ((col >> bit) & 1u) << (2 * bit + 1);
    }
    return idx;
  }

  void cell_of(std::uint32_t index, std::uint32_t& row,
               std::uint32_t& col) const {
    row = col = 0;
    for (std::uint32_t bit = 0; (1u << bit) < dim; ++bit) {
      row |= ((index >> (2 * bit)) & 1u) << bit;
      col |= ((index >> (2 * bit + 1)) & 1u) << bit;
    }
  }

  /// Cell containing a point (meters from the SW corner), clamped to the
  /// grid so confinement rounding error cannot index out of range.
  void cell_at(double x, double y, std::uint32_t& row,
               std::uint32_t& col) const {
    const auto clamp = [this](double v) {
      const double c = std::floor(v / pitch_m);
      return static_cast<std::uint32_t>(std::clamp(
          c, 0.0, static_cast<double>(dim - 1)));
    };
    col = clamp(x);
    row = clamp(y);
  }

  [[nodiscard]] std::uint32_t region_at(double x, double y) const {
    std::uint32_t row = 0, col = 0;
    cell_at(x, y, row, col);
    return index_of(row, col);
  }
};

/// Axis-aligned box in grid meters.
struct MobilityBox {
  double x_lo = 0, x_hi = 0, y_lo = 0, y_hi = 0;
};

struct MobilityConfig {
  std::uint64_t seed = 1;
  /// Level-1 regions; mobility requires a 4^k grid (k >= 1). Other values
  /// yield an empty stream (callers keep their background traffic).
  std::uint32_t regions = 16;
  /// Trajectories are confined to their home region's contiguous Morton
  /// block of regions/shard_blocks cells — the sharded runtime's region
  /// partition — so every emitted handover target is shard-legal.
  std::uint32_t shard_blocks = 1;
  std::uint64_t population = 10'000;
  /// UEs [0, moving_fraction * population) move; the rest are stationary
  /// (overlay mode keeps most of a scenario's population still).
  double moving_fraction = 1.0;
  SimTime duration = SimTime::seconds(10);
  double cell_pitch_m = 1000.0;
  double hysteresis_m = 25.0;
  /// A crossing that returns to the previous cell within this window is a
  /// ping-pong pair (3GPP time-of-stay construction).
  SimTime pingpong_window = SimTime::seconds(20);
  /// Share of moving UEs that are edge oscillators instead of commuters.
  double oscillator_fraction = 0.1;
  /// Share of commuters that are vehicular (the rest walk).
  double vehicular_fraction = 0.5;
  double pedestrian_mps = 1.4;
  double vehicular_mps = 13.9;
  /// Heavy-tailed dwell at home/work anchors (§17 machinery).
  ThinkTimeConfig dwell;
  double dwell_median_s = 40.0;
  /// Commute wave: first departures ~ N(center, sigma) in run fractions.
  double wave_center_frac = 0.25;
  double wave_sigma_frac = 0.10;
};

struct MobilityClassStats {
  std::string name;
  std::uint64_t ues = 0;
  std::uint64_t crossings = 0;
  std::uint64_t legs = 0;  // legs actually walked (at least partially)
  double moving_s = 0.0;
  double distance_m = 0.0;
  /// (4/pi) v / L; 0 for classes outside the closed form's regime.
  double predicted_rate_hz = 0.0;
  /// Whether this class participates in the rate-vs-density check: set by
  /// the engine when the run is inside the closed form's regime — legs
  /// long relative to the hysteresis band (mean walked leg >= 20x h, so
  /// the per-leg-start absorption costs < ~5%), converged (mean walked
  /// leg >= 60% of the uniform-pair expectation, so horizon truncation
  /// and the home-cell first-leg bias have washed out), and enough
  /// crossings for the measurement to be statistical (>= 200).
  bool validate_rate = false;

  [[nodiscard]] double measured_rate_hz() const {
    return moving_s > 0.0 ? static_cast<double>(crossings) / moving_s : 0.0;
  }

  [[nodiscard]] double mean_leg_m() const {
    return legs > 0 ? distance_m / static_cast<double>(legs) : 0.0;
  }
};

struct MobilityStats {
  std::vector<MobilityClassStats> classes;
  std::uint64_t moving_ues = 0;
  std::uint64_t crossings = 0;          // records emitted
  std::uint64_t pingpong_pairs = 0;     // A->B then B->A inside the window
  std::uint64_t suppressed_excursions = 0;  // absorbed by the hysteresis band
  double cell_pitch_m = 0.0;
  double hysteresis_m = 0.0;
  double pingpong_window_s = 0.0;
  /// Analytic finite-block correction to the infinite-network closed form
  /// (see block_correction() in the implementation): the expected ratio
  /// measured/predicted for this block geometry. 1.0 would mean the
  /// closed form applies uncorrected.
  double block_correction = 0.0;
  /// Expected commuter leg length (rectangle mean distance over the
  /// anchor box); classes only validate once their mean walked leg is a
  /// reasonable fraction of this.
  double expected_leg_m = 0.0;

  /// Worst relative deviation |measured / (predicted * correction) - 1|
  /// over validating classes (0 when nothing validates — tiny smoke
  /// runs). The documented tolerance is 10% (DESIGN.md §18); observed
  /// deviations sit near 1-2%.
  [[nodiscard]] double worst_rate_deviation() const {
    double worst = 0.0;
    for (const MobilityClassStats& c : classes) {
      if (!c.validate_rate || c.predicted_rate_hz <= 0.0 ||
          c.moving_s <= 0.0 || block_correction <= 0.0)
        continue;
      worst = std::max(
          worst, std::abs(c.measured_rate_hz() /
                              (c.predicted_rate_hz * block_correction) -
                          1.0));
    }
    return worst;
  }
};

struct MobilityTraffic {
  std::vector<TraceRecord> records;  // (at, ue, type)-sorted
  MobilityStats stats;
};

namespace detail {

// Distinct device_seed class ids so mobility draws never collide with the
// traffic engine's class-index streams (0, 1, ...) under the same seed.
inline constexpr std::uint64_t kMobilityRoleStream = 0x4d6f6200;  // "Mob"
inline constexpr std::uint64_t kMobilityWalkStream = 0x4d6f6210;

/// Per-UE trajectory walker: tracks the serving cell, emits a handover
/// record whenever a straight leg exits the hysteresis-expanded serving
/// rectangle, and folds ping-pong accounting as it goes.
class MobilityWalker {
 public:
  MobilityWalker(const MobilityGrid& grid, double hysteresis_m,
                 double duration_s, double pingpong_s, UeId ue,
                 std::vector<TraceRecord>& out)
      : grid_(grid),
        h_(hysteresis_m),
        duration_s_(duration_s),
        pingpong_s_(pingpong_s),
        ue_(ue),
        out_(out) {}

  void start_at(double x, double y) {
    x_ = x;
    y_ = y;
    grid_.cell_at(x, y, srow_, scol_);
  }

  [[nodiscard]] std::uint64_t crossings() const { return crossings_; }
  [[nodiscard]] std::uint64_t pingpongs() const { return pingpongs_; }
  [[nodiscard]] std::uint64_t legs() const { return legs_; }
  [[nodiscard]] double moving_s() const { return moving_s_; }
  [[nodiscard]] double distance_m() const { return distance_m_; }

  /// Walk to (x1, y1) at `v` m/s starting at `t0` seconds; returns the
  /// arrival time. Legs begun at or past the horizon still advance the
  /// position (cheaply) but emit nothing and count no moving time.
  double leg_to(double x1, double y1, double v, double t0) {
    const double dx = x1 - x_;
    const double dy = y1 - y_;
    const double len = std::hypot(dx, dy);
    if (len <= 0.0 || v <= 0.0) return t0;
    const double t_arrive = t0 + len / v;
    if (t0 < duration_s_) {
      ++legs_;
      moving_s_ += std::min(t_arrive, duration_s_) - t0;
      distance_m_ += std::min(len, (duration_s_ - t0) * v);
    }
    const double ux = dx / len;
    const double uy = dy / len;
    double s = 0.0;  // distance travelled along the leg
    // A leg of length len crosses at most len/L + 1 lines per axis; the
    // bound is a backstop against float-pathological corner loops.
    const double pitch = grid_.pitch_m;
    int guard = static_cast<int>(2.0 * len / pitch) + 8;
    while (guard-- > 0) {
      // Hysteresis-expanded serving rectangle.
      const double rx_lo = static_cast<double>(scol_) * pitch - h_;
      const double rx_hi = static_cast<double>(scol_ + 1) * pitch + h_;
      const double ry_lo = static_cast<double>(srow_) * pitch - h_;
      const double ry_hi = static_cast<double>(srow_ + 1) * pitch + h_;
      const double px = x_ + ux * s;
      const double py = y_ + uy * s;
      double exit = len - s;  // stay inside: finish the leg
      if (ux > 0.0) exit = std::min(exit, (rx_hi - px) / ux);
      if (ux < 0.0) exit = std::min(exit, (rx_lo - px) / ux);
      if (uy > 0.0) exit = std::min(exit, (ry_hi - py) / uy);
      if (uy < 0.0) exit = std::min(exit, (ry_lo - py) / uy);
      const double s_cross = s + std::max(exit, 0.0);
      if (s_cross >= len) break;
      // Step a hair past the crossing to classify the entered cell.
      s = s_cross + kStepEps;
      std::uint32_t nrow = 0, ncol = 0;
      grid_.cell_at(x_ + ux * s, y_ + uy * s, nrow, ncol);
      if (nrow == srow_ && ncol == scol_) {
        // Only reachable when confinement clamped at the grid edge;
        // skip ahead so the loop cannot stall on the boundary.
        s += h_ + kStepEps;
        continue;
      }
      const double t_cross = t0 + s_cross / v;
      const std::uint32_t from = grid_.index_of(srow_, scol_);
      const std::uint32_t target = grid_.index_of(nrow, ncol);
      if (t_cross < duration_s_) {
        TraceRecord rec;
        rec.at = SimTime::nanoseconds(
            static_cast<std::int64_t>(t_cross * 1e9) + 1);
        rec.ue = ue_;
        rec.type = core::ProcedureType::kHandover;
        rec.target_region = target;
        out_.push_back(rec);
        ++crossings_;
        if (target == prev_region_ && t_cross - last_cross_s_ <= pingpong_s_) {
          ++pingpongs_;
        }
        prev_region_ = from;
        last_cross_s_ = t_cross;
      }
      srow_ = nrow;
      scol_ = ncol;
    }
    x_ = x1;
    y_ = y1;
    return t_arrive;
  }

 private:
  static constexpr double kStepEps = 1e-6;  // meters

  const MobilityGrid& grid_;
  double h_;
  double duration_s_;
  double pingpong_s_;
  UeId ue_;
  std::vector<TraceRecord>& out_;
  double x_ = 0.0, y_ = 0.0;
  std::uint32_t srow_ = 0, scol_ = 0;
  std::uint32_t prev_region_ = 0xffffffffu;
  double last_cross_s_ = -1e18;
  std::uint64_t crossings_ = 0;
  std::uint64_t pingpongs_ = 0;
  std::uint64_t legs_ = 0;
  double moving_s_ = 0.0;
  double distance_m_ = 0.0;
};

/// One gaussian via Box-Muller; both uniforms always drawn (fixed stream
/// position per draw, the §17 discipline).
inline double sample_gaussian(Rng& rng) {
  double u1;
  do {
    u1 = rng.next_double();
  } while (u1 <= 0.0);
  const double u2 = rng.next_double();
  constexpr double kTwoPi = 6.283185307179586;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

inline double uniform_in(Rng& rng, double lo, double hi) {
  return lo + rng.next_double() * (hi - lo);
}

/// Mean distance between two independent uniform points in an a x b
/// rectangle (Ghosh 1951); reproduces the classical 0.5214 constant for
/// the unit square.
inline double rect_mean_dist(double a, double b) {
  if (a > b) std::swap(a, b);
  if (a <= 0.0 || b <= 0.0) return 0.0;
  const double d = std::hypot(a, b);
  const double a2 = a * a, b2 = b * b;
  return (a2 * a / b2 + b2 * b / a2 + d * (3.0 - a2 / b2 - b2 / a2)) / 15.0 +
         (b2 / a * std::log((a + d) / b) + a2 / b * std::log((b + d) / a)) /
             6.0;
}

/// Finite-block correction kappa (file comment, "Validation"): expected
/// measured/predicted crossing-rate ratio for commuter legs whose
/// endpoints are uniform in the block's margin-shrunk interior. Per leg,
/// the expected interior-boundary crossings are sum 2F(1-F) over grid
/// lines (F = the line's position within the anchor span), minus ~2h/L of
/// hysteresis absorption; dividing by the unbounded-isotropic expectation
/// E[len] * (4/pi) / L gives kappa. Same for every class — it depends
/// only on geometry, not speed.
inline double block_correction(const MobilityBox& box, double pitch_m,
                               double margin_m, double hysteresis_m) {
  const double ew = box.x_hi - box.x_lo - 2.0 * margin_m;  // anchor spans
  const double eh = box.y_hi - box.y_lo - 2.0 * margin_m;
  if (ew <= 0.0 || eh <= 0.0 || pitch_m <= 0.0) return 0.0;
  double cross = 0.0;
  const auto axis = [&](double lo, double hi, double span) {
    for (double g = std::ceil(lo / pitch_m) * pitch_m; g < hi; g += pitch_m) {
      if (g <= lo + margin_m || g >= hi - margin_m) continue;
      const double f = (g - (lo + margin_m)) / span;
      cross += 2.0 * f * (1.0 - f);
    }
  };
  axis(box.x_lo, box.x_hi, ew);
  axis(box.y_lo, box.y_hi, eh);
  cross -= 2.0 * hysteresis_m / pitch_m;
  const double e_len = rect_mean_dist(ew, eh);
  if (e_len <= 0.0 || cross <= 0.0) return 0.0;
  constexpr double kFourOverPi = 4.0 / 3.14159265358979323846;
  return cross * pitch_m / (e_len * kFourOverPi);
}

}  // namespace detail

/// Generate the full mobility stream for one config. Pure function of the
/// config (bitwise-deterministic); see the file comment.
inline MobilityTraffic generate_mobility(const MobilityConfig& cfg) {
  MobilityTraffic out;
  MobilityStats& stats = out.stats;
  stats.cell_pitch_m = cfg.cell_pitch_m;
  stats.hysteresis_m = cfg.hysteresis_m;
  stats.pingpong_window_s = cfg.pingpong_window.sec();

  const MobilityGrid grid = MobilityGrid::make(cfg.regions, cfg.cell_pitch_m);
  const auto moving = static_cast<std::uint64_t>(
      std::clamp(cfg.moving_fraction, 0.0, 1.0) *
      static_cast<double>(cfg.population));
  stats.classes = {
      {"pedestrian", 0, 0, 0, 0.0, 0.0,
       4.0 / 3.14159265358979323846 * cfg.pedestrian_mps / cfg.cell_pitch_m,
       false},
      {"vehicular", 0, 0, 0, 0.0, 0.0,
       4.0 / 3.14159265358979323846 * cfg.vehicular_mps / cfg.cell_pitch_m,
       false},
      {"edge-oscillator", 0, 0, 0, 0.0, 0.0, 0.0, false},
  };
  if (grid.dim == 0 || moving == 0 || cfg.duration.ns() <= 0) return out;

  const std::uint32_t regions = grid.regions();
  const std::uint32_t blocks =
      std::max(1u, std::min(cfg.shard_blocks, regions));
  const std::uint32_t block_size = regions / blocks;
  if (block_size == 0 || regions % blocks != 0) return out;

  // Per-block bounding boxes (Morton ranges of size 4^j or 2*4^j are
  // rectangles; anything else would leave holes, so reject it).
  std::vector<MobilityBox> block_box(blocks);
  for (std::uint32_t b = 0; b < blocks; ++b) {
    MobilityBox& box = block_box[b];
    box.x_lo = box.y_lo = 1e18;
    box.x_hi = box.y_hi = -1e18;
    for (std::uint32_t r = b * block_size; r < (b + 1) * block_size; ++r) {
      std::uint32_t row = 0, col = 0;
      grid.cell_of(r, row, col);
      box.x_lo = std::min(box.x_lo, static_cast<double>(col) * grid.pitch_m);
      box.x_hi = std::max(box.x_hi,
                          static_cast<double>(col + 1) * grid.pitch_m);
      box.y_lo = std::min(box.y_lo, static_cast<double>(row) * grid.pitch_m);
      box.y_hi = std::max(box.y_hi,
                          static_cast<double>(row + 1) * grid.pitch_m);
    }
    const double cells = (box.x_hi - box.x_lo) * (box.y_hi - box.y_lo) /
                         (grid.pitch_m * grid.pitch_m);
    if (static_cast<std::uint32_t>(cells + 0.5) != block_size) return out;
  }

  const double duration_s = cfg.duration.sec();
  const double margin = std::max(2.0 * cfg.hysteresis_m, 8.0);
  const double h = cfg.hysteresis_m;
  // Equal-size contiguous Morton ranges over a square grid are congruent
  // rectangles, so block 0's geometry stands for all of them.
  stats.block_correction =
      detail::block_correction(block_box[0], grid.pitch_m, margin, h);
  stats.expected_leg_m = detail::rect_mean_dist(
      block_box[0].x_hi - block_box[0].x_lo - 2.0 * margin,
      block_box[0].y_hi - block_box[0].y_lo - 2.0 * margin);
  std::vector<TraceRecord> records;
  records.reserve(static_cast<std::size_t>(moving) * 4);

  for (std::uint64_t u = 0; u < moving; ++u) {
    const UeId ue{u};
    const std::uint32_t home = static_cast<std::uint32_t>(u % regions);
    const std::uint32_t block = home / block_size;
    const MobilityBox& bb = block_box[block];
    // Block interior the anchors may use; a degenerate box (single-cell
    // block narrower than two margins) produces a stationary UE.
    const MobilityBox in{bb.x_lo + margin, bb.x_hi - margin,
                         bb.y_lo + margin, bb.y_hi - margin};
    std::uint32_t hrow = 0, hcol = 0;
    grid.cell_of(home, hrow, hcol);

    // Role draw comes from its own stream so adding roles later cannot
    // shift any walk stream.
    Rng role_rng(device_seed(cfg.seed, detail::kMobilityRoleStream, u));
    const double role = role_rng.next_double();
    const bool oscillator = role < cfg.oscillator_fraction;
    const bool vehicular =
        !oscillator && role_rng.next_double() < cfg.vehicular_fraction;
    MobilityClassStats& cls =
        stats.classes[oscillator ? 2 : (vehicular ? 1 : 0)];

    Rng rng(device_seed(cfg.seed, detail::kMobilityWalkStream +
                                      (oscillator ? 2 : (vehicular ? 1 : 0)),
                        u));
    detail::MobilityWalker walker(grid, h, duration_s,
                                  stats.pingpong_window_s, ue, records);
    ++stats.moving_ues;
    ++cls.ues;

    if (!oscillator) {
      // Commuter: home anchor inside the home cell (clipped to the block
      // interior), work anchor anywhere in the block interior.
      const double hx_lo =
          std::max(static_cast<double>(hcol) * grid.pitch_m, in.x_lo);
      const double hx_hi =
          std::min(static_cast<double>(hcol + 1) * grid.pitch_m, in.x_hi);
      const double hy_lo =
          std::max(static_cast<double>(hrow) * grid.pitch_m, in.y_lo);
      const double hy_hi =
          std::min(static_cast<double>(hrow + 1) * grid.pitch_m, in.y_hi);
      if (hx_lo >= hx_hi || hy_lo >= hy_hi || in.x_lo >= in.x_hi ||
          in.y_lo >= in.y_hi) {
        continue;  // block too small to move in
      }
      const double home_x = detail::uniform_in(rng, hx_lo, hx_hi);
      const double home_y = detail::uniform_in(rng, hy_lo, hy_hi);
      const double v = vehicular ? cfg.vehicular_mps : cfg.pedestrian_mps;
      walker.start_at(home_x, home_y);
      double t = std::clamp(
          duration_s * (cfg.wave_center_frac +
                        cfg.wave_sigma_frac * detail::sample_gaussian(rng)),
          0.0, duration_s);
      // Home-based tours: workplace first, then errands — a *fresh*
      // destination every cycle. Reusing one fixed pair would weight each
      // UE's direction by how many legs it fits into the run (short pairs
      // repeat more), biasing the population's direction mix off
      // isotropic; fresh pairs keep the measured crossing rate on the
      // 1607.06439 closed form.
      while (t < duration_s) {
        const double dest_x = detail::uniform_in(rng, in.x_lo, in.x_hi);
        const double dest_y = detail::uniform_in(rng, in.y_lo, in.y_hi);
        t = walker.leg_to(dest_x, dest_y, v, t);
        t += sample_think(cfg.dwell, cfg.dwell_median_s, rng);
        if (t >= duration_s) break;
        t = walker.leg_to(home_x, home_y, v, t);
        t += sample_think(cfg.dwell, cfg.dwell_median_s, rng);
      }
    } else {
      // Edge oscillator: anchored at an interior boundary of the home
      // cell (interior to the shard block), excursions perpendicular.
      struct Dir {
        int drow, dcol;
      };
      const Dir dirs[4] = {{0, 1}, {0, -1}, {1, 0}, {-1, 0}};
      std::vector<Dir> valid;
      for (const Dir& d : dirs) {
        const auto nrow = static_cast<std::int64_t>(hrow) + d.drow;
        const auto ncol = static_cast<std::int64_t>(hcol) + d.dcol;
        if (nrow < 0 || ncol < 0 || nrow >= grid.dim || ncol >= grid.dim)
          continue;
        const std::uint32_t nidx =
            grid.index_of(static_cast<std::uint32_t>(nrow),
                          static_cast<std::uint32_t>(ncol));
        if (nidx / block_size == block) valid.push_back(d);
      }
      if (valid.empty()) continue;  // single-cell block: nowhere to ping
      const Dir d = valid[rng.next_u64() % valid.size()];
      // Boundary point at fraction f along the shared edge, away from
      // corners; base pulled back 3 hysteresis widths into the home cell.
      const double f = 0.25 + 0.5 * rng.next_double();
      const double cx0 = static_cast<double>(hcol) * grid.pitch_m;
      const double cy0 = static_cast<double>(hrow) * grid.pitch_m;
      double ax, ay, nx, ny;  // anchor on boundary, outward normal
      if (d.dcol != 0) {
        ax = d.dcol > 0 ? cx0 + grid.pitch_m : cx0;
        ay = cy0 + f * grid.pitch_m;
        nx = static_cast<double>(d.dcol);
        ny = 0.0;
      } else {
        ax = cx0 + f * grid.pitch_m;
        ay = d.drow > 0 ? cy0 + grid.pitch_m : cy0;
        nx = 0.0;
        ny = static_cast<double>(d.drow);
      }
      const double base_off = 3.0 * std::max(h, 1.0);
      const double bx = ax - nx * base_off;
      const double by = ay - ny * base_off;
      const double v = cfg.vehicular_mps;
      walker.start_at(bx, by);
      // Random phase so the population's excursions are unsynchronized.
      double t = rng.next_double() * 30.0;
      while (t < duration_s) {
        // Amplitude beyond the boundary: ~32% of draws stay inside the
        // hysteresis band and are absorbed.
        const double amp = std::max(h, 1.0) * (0.3 + 2.2 * rng.next_double());
        if (amp <= h && t < duration_s) ++stats.suppressed_excursions;
        t = walker.leg_to(ax + nx * amp, ay + ny * amp, v, t);
        t = walker.leg_to(bx, by, v, t);
        t += detail::uniform_in(rng, 1.0, 5.0);
      }
    }
    cls.crossings += walker.crossings();
    cls.legs += walker.legs();
    cls.moving_s += walker.moving_s();
    cls.distance_m += walker.distance_m();
    stats.crossings += walker.crossings();
    stats.pingpong_pairs += walker.pingpongs();
  }

  // Rate-check eligibility (see MobilityClassStats::validate_rate): the
  // oscillator class never validates — its legs are shorter than a cell.
  for (MobilityClassStats& c : stats.classes) {
    c.validate_rate = c.predicted_rate_hz > 0.0 && c.crossings >= 200 &&
                      c.mean_leg_m() >= 20.0 * std::max(h, 1.0) &&
                      c.mean_leg_m() >= 0.6 * stats.expected_leg_m;
  }

  sort_records(records);
  out.records = std::move(records);
  return out;
}

}  // namespace neutrino::traffic
