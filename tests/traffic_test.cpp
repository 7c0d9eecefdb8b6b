// Traffic generators and named scenario library (DESIGN.md §17):
// statistical shape of the generators (heavy tail, diurnal envelope,
// Markov chain, duty cycling, the §6.1 uniform mix and wave), bitwise
// determinism, the record streams every caller replays pinned by hash, and
// the scenario name registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/hashing.hpp"
#include "traffic/engine.hpp"
#include "traffic/scenario.hpp"

namespace neutrino::traffic {
namespace {

bool records_equal(const TraceRecord& a, const TraceRecord& b) {
  return a.at == b.at && a.ue.value() == b.ue.value() && a.type == b.type &&
         a.target_region == b.target_region;
}

bool streams_equal(const std::vector<TraceRecord>& a,
                   const std::vector<TraceRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!records_equal(a[i], b[i])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Think-time distribution: calibration and tail shape.
// ---------------------------------------------------------------------------

TEST(ThinkTime, MeanMatchesCalibrationConstant) {
  // Finite-variance configuration (tail_alpha > 2) so the sample mean
  // concentrates: the empirical mean over many draws must match
  // median * think_mean_multiplier, which is what the engine relies on to
  // hit a class's target rate.
  ThinkTimeConfig c;
  c.sigma = 1.0;
  c.tail_weight = 0.05;
  c.tail_alpha = 2.5;
  c.tail_xm_mult = 4.0;
  Rng rng(42);
  const int n = 200'000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += sample_think(c, /*median=*/1.0, rng);
  const double expected = think_mean_multiplier(c);
  EXPECT_NEAR(sum / n, expected, expected * 0.05);
}

TEST(ThinkTime, HillEstimatorRecoversParetoTailExponent) {
  // Tail-dominant configuration: at the top-0.5% threshold the log-normal
  // body's contribution is negligible, so the Hill estimator over the top
  // order statistics must recover tail_alpha.
  ThinkTimeConfig c;
  c.sigma = 0.7;
  c.tail_weight = 0.3;
  c.tail_alpha = 1.5;
  c.tail_xm_mult = 4.0;
  Rng rng(7);
  const std::size_t n = 300'000;
  std::vector<double> x(n);
  for (double& v : x) v = sample_think(c, 1.0, rng);
  std::sort(x.begin(), x.end(), std::greater<>());
  const std::size_t k = n / 200;  // top 0.5%
  double hill = 0.0;
  for (std::size_t i = 0; i < k; ++i) hill += std::log(x[i] / x[k]);
  hill /= static_cast<double>(k);
  const double alpha_hat = 1.0 / hill;
  EXPECT_NEAR(alpha_hat, c.tail_alpha, 0.3);
}

TEST(ThinkTime, DefaultConfigIsHeavierThanExponential) {
  // Default mixture: P(X > 20·median) must carry Pareto-scale mass. An
  // exponential with the same mean (~1.86) would put ~2e-5 there; the
  // mixture's tail component alone contributes 0.05·(4/20)^1.5 ≈ 4.5e-3.
  ThinkTimeConfig c;
  Rng rng(11);
  const int n = 300'000;
  int exceed = 0;
  for (int i = 0; i < n; ++i) {
    if (sample_think(c, 1.0, rng) > 20.0) ++exceed;
  }
  const double frac = static_cast<double>(exceed) / n;
  EXPECT_GT(frac, 0.003);
  EXPECT_LT(frac, 0.012);
}

// ---------------------------------------------------------------------------
// Markov chain over procedure states.
// ---------------------------------------------------------------------------

TEST(MarkovChain, TransitionFrequenciesMatchRow) {
  const MarkovChain c = detail::smartphone_chain();
  Rng rng(5);
  const int n = 100'000;
  std::array<int, kProcStates> counts{};
  for (int i = 0; i < n; ++i) {
    counts[static_cast<std::size_t>(
        c.next(ProcState::kServiceRequest, rng))]++;
  }
  // smartphone_chain kServiceRequest row: {0.03, 0.52, 0.08, 0.22, 0.15}.
  const double expected[kProcStates] = {0.03, 0.52, 0.08, 0.22, 0.15};
  for (std::size_t j = 0; j < kProcStates; ++j) {
    EXPECT_NEAR(static_cast<double>(counts[j]) / n, expected[j], 0.02)
        << "state " << j;
  }
}

TEST(MarkovChain, RowsAreNormalizedBySum) {
  // A row summing to 2.0 must behave exactly like the same row halved.
  MarkovChain c;
  c.set_row(ProcState::kAttach, 1.0, 0.6, 0.0, 0.4, 0.0);
  Rng rng(9);
  const int n = 50'000;
  std::array<int, kProcStates> counts{};
  for (int i = 0; i < n; ++i) {
    counts[static_cast<std::size_t>(c.next(ProcState::kAttach, rng))]++;
  }
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.5, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.3, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[3]) / n, 0.2, 0.02);
  EXPECT_EQ(counts[2], 0);
  EXPECT_EQ(counts[4], 0);
}

TEST(MarkovChain, ZeroRowIsAbsorbing) {
  MarkovChain c;  // all-zero rows
  Rng rng(1);
  EXPECT_EQ(c.next(ProcState::kTau, rng), ProcState::kTau);
  EXPECT_EQ(c.next(ProcState::kAttach, rng), ProcState::kAttach);
}

// ---------------------------------------------------------------------------
// Diurnal envelope: volume preservation and shape.
// ---------------------------------------------------------------------------

TEST(Envelope, FlatWarpIsIdentity) {
  const detail::BakedEnvelope baked(DiurnalEnvelope::flat(), 10.0);
  for (double s = 0.0; s < 10.0; s += 0.37) {
    EXPECT_NEAR(baked.warp(s), s, 0.02) << s;
  }
  EXPECT_EQ(baked.warp(10.0), 10.0);
  EXPECT_EQ(baked.warp(25.0), 10.0);
}

TEST(Envelope, WarpIsMonotoneAndSkipsZeroRateOutage) {
  DiurnalEnvelope env;
  env.points = {{0.0, 0.0}, {0.35, 0.0}, {0.40, 4.0}, {0.60, 1.3},
                {1.0, 0.8}};
  const double duration = 100.0;
  const detail::BakedEnvelope baked(env, duration);
  // No activity maps into the outage: the earliest warped instant is the
  // first positive-rate cell after the 35% mark.
  EXPECT_GE(baked.warp(0.0), 0.34 * duration);
  double prev = -1.0;
  for (double s = 0.0; s < duration; s += 1.7) {
    const double t = baked.warp(s);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(Engine, DiurnalVolumeAndShape) {
  // target_pps · duration arrivals regardless of the envelope (mean level
  // is normalized to 1), distributed with the envelope's shape.
  EngineConfig cfg;
  cfg.target_pps = 400.0;
  cfg.duration = SimTime::seconds(20);
  cfg.population = 200;
  cfg.seed = 3;
  cfg.envelope.points = {{0.0, 0.3}, {0.7, 1.7}, {1.0, 1.5}};  // commuter
  const GeneratedTraffic out = generate(cfg);
  const double expected = cfg.target_pps * cfg.duration.sec();
  EXPECT_NEAR(static_cast<double>(out.records.size()), expected,
              expected * 0.15);
  // Shape: the ramp's analytic mass split is 0.40 (first half) vs 0.78
  // (second half) → second/first ≈ 1.95.
  const SimTime half = SimTime::seconds(10);
  std::uint64_t first = 0, second = 0;
  for (const auto& rec : out.records) {
    (rec.at <= half ? first : second)++;
  }
  ASSERT_GT(first, 0u);
  const double ratio =
      static_cast<double>(second) / static_cast<double>(first);
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.5);
}

// ---------------------------------------------------------------------------
// Engine determinism and structural validity.
// ---------------------------------------------------------------------------

EngineConfig two_class_config(std::uint64_t seed) {
  EngineConfig cfg;
  cfg.target_pps = 2'000.0;
  cfg.duration = SimTime::seconds(4);
  cfg.population = 1'000;
  cfg.regions = 4;
  cfg.seed = seed;
  cfg.classes.clear();
  DeviceClassConfig phones;
  phones.name = "smartphone";
  phones.population_share = 0.3;
  phones.chain = detail::smartphone_chain();
  cfg.classes.push_back(std::move(phones));
  DeviceClassConfig iot;
  iot.name = "massive-iot";
  iot.population_share = 0.7;
  iot.chain = detail::iot_chain();
  iot.duty_period = SimTime::milliseconds(500);
  cfg.classes.push_back(std::move(iot));
  return cfg;
}

TEST(Engine, GenerationIsBitwiseDeterministic) {
  const GeneratedTraffic a = generate(two_class_config(77));
  const GeneratedTraffic b = generate(two_class_config(77));
  ASSERT_FALSE(a.records.empty());
  EXPECT_TRUE(streams_equal(a.records, b.records));
  ASSERT_EQ(a.per_class.size(), b.per_class.size());
  for (std::size_t i = 0; i < a.per_class.size(); ++i) {
    EXPECT_EQ(a.per_class[i].count, b.per_class[i].count);
    EXPECT_EQ(a.per_class[i].ue_base, b.per_class[i].ue_base);
    EXPECT_EQ(a.per_class[i].ue_count, b.per_class[i].ue_count);
  }
}

TEST(Engine, DifferentSeedsDiverge) {
  const GeneratedTraffic a = generate(two_class_config(77));
  const GeneratedTraffic b = generate(two_class_config(78));
  EXPECT_FALSE(streams_equal(a.records, b.records));
}

TEST(Engine, RecordsValidAndSortedAndClassesTilePopulation) {
  const EngineConfig cfg = two_class_config(13);
  const GeneratedTraffic out = generate(cfg);
  ASSERT_FALSE(out.records.empty());
  EXPECT_EQ(out.total(), out.records.size());
  // UE ranges tile [0, population) in class order.
  std::uint64_t next_base = 0;
  for (const ClassArrivals& c : out.per_class) {
    EXPECT_EQ(c.ue_base, next_base) << c.name;
    next_base += c.ue_count;
  }
  EXPECT_EQ(next_base, cfg.population);
  for (std::size_t i = 0; i < out.records.size(); ++i) {
    const auto& rec = out.records[i];
    EXPECT_LT(rec.ue.value(), cfg.population);
    EXPECT_GT(rec.at, SimTime{});
    EXPECT_LE(rec.at, cfg.duration);
    // allow_inter_region is false: handover demotes to intra at home.
    EXPECT_NE(rec.type, core::ProcedureType::kHandover);
    if (rec.type == core::ProcedureType::kIntraHandover) {
      EXPECT_EQ(rec.target_region,
                rec.ue.value() % static_cast<std::uint64_t>(cfg.regions));
    }
    if (i > 0) {
      EXPECT_FALSE(record_before(rec, out.records[i - 1])) << i;
    }
  }
}

TEST(Engine, DutyCycledClassSnapsToSharedWakeupSlots) {
  ScenarioRequest req;
  req.target_pps = 2'000.0;
  req.duration = SimTime::seconds(8);
  req.population = 1'000;
  req.regions = 1;
  req.seed = 9;
  const auto out = generate_scenario("iot-firmware-push", req);
  ASSERT_TRUE(out.has_value());
  // Classes: 20% smartphone then 80% massive-iot absorbing the remainder.
  ASSERT_EQ(out->per_class.size(), 2u);
  EXPECT_EQ(out->per_class[0].name, "smartphone");
  EXPECT_EQ(out->per_class[1].name, "massive-iot");
  const std::uint64_t iot_base = out->per_class[1].ue_base;
  EXPECT_EQ(iot_base, 200u);
  EXPECT_EQ(out->per_class[1].ue_count, 800u);
  // Every IoT arrival lands on one of the 8 shared wakeup instants, at
  // most once per device per slot — the synchronized-spike construction.
  std::set<std::int64_t> slots;
  std::set<std::pair<std::uint64_t, std::int64_t>> per_device;
  std::map<std::int64_t, std::uint64_t> slot_sizes;
  for (const auto& rec : out->records) {
    if (rec.ue.value() < iot_base) continue;
    slots.insert(rec.at.ns());
    EXPECT_TRUE(per_device.insert({rec.ue.value(), rec.at.ns()}).second)
        << "device " << rec.ue.value() << " woke twice in one slot";
    slot_sizes[rec.at.ns()]++;
  }
  EXPECT_GE(slots.size(), 6u);
  EXPECT_LE(slots.size(), 8u);
  // The slots are genuine population-wide spikes, not stragglers.
  for (const auto& [at, count] : slot_sizes) {
    EXPECT_GT(count, 100u) << "slot at " << at;
  }
}

// ---------------------------------------------------------------------------
// Record ordering helpers (the documented (at, ue, type) total order).
// ---------------------------------------------------------------------------

TEST(RecordOrder, MergeSortedEqualsGlobalSort) {
  Rng rng(21);
  std::vector<std::vector<TraceRecord>> streams(3);
  std::vector<TraceRecord> all;
  for (auto& stream : streams) {
    for (int i = 0; i < 500; ++i) {
      TraceRecord rec;
      rec.at = SimTime::nanoseconds(
          static_cast<std::int64_t>(rng.next_double() * 1e9));
      rec.ue = UeId(rng.next_u64() % 64);
      rec.type = static_cast<core::ProcedureType>(rng.next_u64() % 4);
      stream.push_back(rec);
    }
    sort_records(stream);
    all.insert(all.end(), stream.begin(), stream.end());
  }
  sort_records(all);
  const auto merged = merge_sorted_records(std::move(streams));
  ASSERT_EQ(merged.size(), all.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    // Keys equal position by position; ties in all three keys are
    // documented as interchangeable, so compare keys rather than bytes.
    EXPECT_FALSE(record_before(merged[i], all[i])) << i;
    EXPECT_FALSE(record_before(all[i], merged[i])) << i;
  }
}

// ---------------------------------------------------------------------------
// §6.1 generators: uniform() and wave().
// ---------------------------------------------------------------------------

/// Counts of {service request, handover, intra-handover, attach} in `t`.
std::array<std::size_t, 4> mix_counts(const std::vector<TraceRecord>& t) {
  std::array<std::size_t, 4> n{};
  for (const auto& rec : t) {
    switch (rec.type) {
      case core::ProcedureType::kServiceRequest: ++n[0]; break;
      case core::ProcedureType::kHandover: ++n[1]; break;
      case core::ProcedureType::kIntraHandover: ++n[2]; break;
      default: ++n[3]; break;
    }
  }
  return n;
}

TEST(Uniform, RateAndOrdering) {
  const auto t = uniform(50'000.0, SimTime::seconds(1), {}, 1'000'000, 1, 5);
  // Poisson with lambda=50K over 1s: within 5%.
  EXPECT_NEAR(static_cast<double>(t.size()), 50'000.0, 2'500.0);
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_LE(t[i - 1].at, t[i].at);
  }
}

TEST(Uniform, MixFractionsRespected) {
  const ProcedureMix mix{.service_request = 0.6, .handover = 0.2,
                         .intra_handover = 0.1};
  const auto t = uniform(20'000.0, SimTime::seconds(1), mix, 1'000'000, 4, 5);
  const auto [sr, ho, intra, attach] = mix_counts(t);
  const auto n = static_cast<double>(t.size());
  EXPECT_NEAR(static_cast<double>(sr) / n, 0.6, 0.03);
  EXPECT_NEAR(static_cast<double>(ho) / n, 0.2, 0.03);
  EXPECT_NEAR(static_cast<double>(intra) / n, 0.1, 0.03);
  EXPECT_NEAR(static_cast<double>(attach) / n, 0.1, 0.03);
}

TEST(Uniform, SingleRegionRenormalizesHandoverIntoIntra) {
  // Mix contract (uniform()): on a single-region topology the
  // inter-region handover mass folds into intra-handover — it must not
  // fall through to attach, and attach keeps exactly its configured
  // remainder (0.2 here).
  const ProcedureMix mix{.service_request = 0.5, .handover = 0.2,
                         .intra_handover = 0.1};
  const auto t = uniform(20'000.0, SimTime::seconds(1), mix, 1'000'000, 1, 5);
  const auto [sr, ho, intra, attach] = mix_counts(t);
  EXPECT_EQ(ho, 0u);
  const auto n = static_cast<double>(t.size());
  EXPECT_NEAR(static_cast<double>(sr) / n, 0.5, 0.03);
  EXPECT_NEAR(static_cast<double>(intra) / n, 0.3, 0.03);
  EXPECT_NEAR(static_cast<double>(attach) / n, 0.2, 0.03);
}

TEST(Uniform, HandoverTargetsDifferFromHome) {
  for (const auto& rec : uniform(5'000.0, SimTime::seconds(1),
                                 {.handover = 1.0}, 100'000, 4, 9)) {
    if (rec.type == core::ProcedureType::kHandover) {
      EXPECT_NE(rec.target_region, rec.ue.value() % 4);
    }
  }
}

TEST(Wave, AllUsersWithinWindowOnce) {
  const SimTime start = SimTime::seconds(2);
  const SimTime window = SimTime::milliseconds(100);
  const auto t =
      wave(10'000, core::ProcedureType::kAttach, start, window, /*seed=*/3);
  ASSERT_EQ(t.size(), 10'000u);
  std::set<std::uint64_t> distinct;
  for (const auto& rec : t) {
    EXPECT_GE(rec.at, start);
    EXPECT_LT(rec.at, start + window);
    EXPECT_EQ(rec.type, core::ProcedureType::kAttach);
    distinct.insert(rec.ue.value());
  }
  EXPECT_EQ(distinct.size(), 10'000u);
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_FALSE(record_before(t[i], t[i - 1])) << i;
  }
}

// ---------------------------------------------------------------------------
// Pinned streams: FNV-1a over every record's (at, ue, type, target_region),
// taken from the generators these functions replaced. A hash that moves
// means some bench, scenario or perfbench run replays a different trace.
// ---------------------------------------------------------------------------

std::uint64_t stream_hash(const std::vector<TraceRecord>& records) {
  std::uint64_t h = fnv1a64("");
  auto put = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      const char c = static_cast<char>(v >> (8 * i));
      h = fnv1a64(std::string_view(&c, 1), h);
    }
  };
  for (const TraceRecord& r : records) {
    put(static_cast<std::uint64_t>(r.at.ns()), 8);
    put(r.ue.value(), 8);
    put(static_cast<std::uint64_t>(r.type), 1);
    put(r.target_region, 4);
  }
  return h;
}

TEST(PinnedStreams, LegacyUniform) {
  ScenarioRequest req;
  req.target_pps = 2'000;
  req.duration = SimTime::seconds(2);
  req.population = 1'000;
  req.regions = 4;
  req.seed = 7;
  const auto out = generate_scenario("legacy-uniform", req);
  ASSERT_EQ(out->records.size(), 4'021u);
  EXPECT_EQ(stream_hash(out->records), 0x47c9cac389bb34e6ULL);
}

TEST(PinnedStreams, LegacyBurstyAtPerfbenchStorm) {
  // perfbench's storm request (seed 1): 300k UEs over a 19 s window.
  ScenarioRequest req;
  req.target_pps = 16'667;
  req.duration = SimTime::seconds(19);
  req.population = 300'000;
  req.regions = 4;
  req.seed = 1;
  const auto out = generate_scenario("legacy-bursty", req);
  ASSERT_EQ(out->records.size(), 300'000u);
  EXPECT_EQ(stream_hash(out->records), 0x24340eb934676fa8ULL);
}

TEST(PinnedStreams, NamedScenarios) {
  ScenarioRequest req;
  req.target_pps = 2'000;
  req.duration = SimTime::seconds(4);
  req.population = 2'000;
  req.regions = 16;
  req.seed = 3;
  const std::pair<const char*, std::uint64_t> pins[] = {
      {"commuter-morning", 0x1b29da4e5f1f51aaULL},
      {"stadium-egress", 0x114ede518e732ac9ULL},
      {"iot-firmware-push", 0xaafde3cef3a7bb86ULL},
      {"region-blackout-reconnect", 0xc058d74edf62db10ULL},
      {"commuter-crossing", 0xe1e10c55fa85a4dbULL},
      {"edge-pingpong", 0xc1eeff6e9c7d0b78ULL},
  };
  for (const auto& [name, hash] : pins) {
    const auto out = generate_scenario(name, req);
    ASSERT_TRUE(out.has_value()) << name;
    EXPECT_EQ(stream_hash(out->records), hash) << name;
  }
}

TEST(PinnedStreams, UniformAtEveryBenchMix) {
  struct Pin {
    ProcedureMix mix;
    int regions;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {{}, 4, 0xdb1a1e0fb6e82181ULL},
      {{.handover = 1.0}, 4, 0xe61cbd100c4d6cfcULL},
      {{.handover = 1.0}, 1, 0x00691d429fe6505fULL},
      {{.service_request = 1.0}, 4, 0xc218fd26a001214bULL},
      {{.service_request = 0.5, .intra_handover = 0.1}, 4,
       0xb99d7bedbf02f21aULL},
      {{.service_request = 0.7, .handover = 0.1, .intra_handover = 0.1}, 4,
       0xb6ee49220e19744bULL},
  };
  for (const Pin& pin : pins) {
    const auto t = uniform(5'000.0, SimTime::seconds(1), pin.mix, 3'000,
                           pin.regions, /*seed=*/42);
    ASSERT_EQ(t.size(), 4'926u);
    EXPECT_EQ(stream_hash(t), pin.hash)
        << pin.mix.service_request << ' ' << pin.mix.handover << ' '
        << pin.mix.intra_handover << " regions " << pin.regions;
  }
}

TEST(PinnedStreams, WaveAtBenchCallShapes) {
  using PT = core::ProcedureType;
  // scale_throughput --smoke: 100k attaches over 6 s, then 100k service
  // requests over 6 s starting 5 s after the attach window.
  const SimTime window = SimTime::seconds(6);
  auto storm = wave(100'000, PT::kAttach, SimTime{}, window, 42);
  EXPECT_EQ(stream_hash(storm), 0xd7c40a5ff565bf1cULL);
  const auto requests = wave(100'000, PT::kServiceRequest,
                             window + SimTime::seconds(5), window, 1337);
  storm.insert(storm.end(), requests.begin(), requests.end());
  EXPECT_EQ(stream_hash(storm), 0x39dd40118e4ad740ULL);
  // fig09: 10k attaches inside 100 ms.
  EXPECT_EQ(stream_hash(wave(10'000, PT::kAttach, SimTime{},
                             SimTime::milliseconds(100), 42)),
            0xa172fe19ef224bc0ULL);
  // fig17: 10k attaches on one region, 10k handovers over four, in 1 s.
  EXPECT_EQ(stream_hash(wave(10'000, PT::kAttach, SimTime{},
                             SimTime::seconds(1), 42, 1)),
            0xf8b97b39f9b8a092ULL);
  EXPECT_EQ(stream_hash(wave(10'000, PT::kHandover, SimTime{},
                             SimTime::seconds(1), 42, 4)),
            0xded9964e3e700af4ULL);
}

// ---------------------------------------------------------------------------
// Scenario registry: round-trip, determinism, and the hard-error message.
// ---------------------------------------------------------------------------

TEST(Scenarios, EveryNamedScenarioGeneratesValidTraffic) {
  ScenarioRequest req;
  req.target_pps = 1'000.0;
  req.duration = SimTime::seconds(2);
  req.population = 500;
  req.regions = 4;
  req.seed = 31;
  for (const ScenarioInfo& info : scenarios()) {
    SCOPED_TRACE(std::string(info.name));
    EXPECT_NE(find_scenario(info.name), nullptr);
    const auto out = generate_scenario(info.name, req);
    ASSERT_TRUE(out.has_value());
    EXPECT_FALSE(out->records.empty());
    EXPECT_EQ(out->total(), out->records.size());
    for (std::size_t i = 1; i < out->records.size(); ++i) {
      ASSERT_FALSE(
          record_before(out->records[i], out->records[i - 1]))
          << i;
    }
    // Same request → byte-identical stream (what the benches' fixed-seed
    // determinism gate rests on).
    const auto again = generate_scenario(info.name, req);
    ASSERT_TRUE(again.has_value());
    EXPECT_TRUE(streams_equal(out->records, again->records));
  }
}

TEST(Scenarios, ColdStartScenariosBeginWithAttach) {
  // preattach=false scenarios must register devices before anything else
  // reaches them: each device's first record is an attach.
  ScenarioRequest req;
  req.target_pps = 1'000.0;
  req.duration = SimTime::seconds(2);
  req.population = 300;
  req.seed = 5;
  for (const ScenarioInfo& info : scenarios()) {
    if (info.preattach) continue;
    SCOPED_TRACE(std::string(info.name));
    const auto out = generate_scenario(info.name, req);
    ASSERT_TRUE(out.has_value());
    std::set<std::uint64_t> seen;
    for (const auto& rec : out->records) {
      if (seen.insert(rec.ue.value()).second) {
        EXPECT_EQ(rec.type, core::ProcedureType::kAttach)
            << "ue " << rec.ue.value();
      }
    }
  }
}

TEST(Scenarios, UnknownNameIsHardErrorListingAllNames) {
  EXPECT_EQ(find_scenario("no-such-scenario"), nullptr);
  EXPECT_FALSE(generate_scenario("no-such-scenario", {}).has_value());
  const std::string err = unknown_scenario_error("no-such-scenario");
  EXPECT_NE(err.find("no-such-scenario"), std::string::npos);
  for (const ScenarioInfo& info : scenarios()) {
    EXPECT_NE(err.find(std::string(info.name)), std::string::npos)
        << info.name;
  }
}

}  // namespace
}  // namespace neutrino::traffic
