// Unit tests for the deep-telemetry layer (DESIGN.md §15): windowed
// series rollover and merge identities, flight-recorder ring semantics
// and cross-shard merge ordering, SLO burn-rate math, the phase
// profiler's accounting, and Perfetto trace-export well-formedness.
//
// Note on string assertions: Json::dump(0) emits one line with no space
// after ':' ("key":value), and doubles print via %.9g.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_export.hpp"

namespace neutrino {
namespace {

constexpr SimTime kWin = SimTime::milliseconds(10);

SimTime ms(std::int64_t v) { return SimTime::milliseconds(v); }

// ---------------------------------------------------------------------------
// WindowedSeries
// ---------------------------------------------------------------------------

TEST(WindowedSeries, RolloverBucketsByWindowIndex) {
  obs::WindowedSeries s(kWin, obs::WindowAgg::kSum);
  s.record(ms(1), 2.0);
  s.record(ms(9), 3.0);   // same window: combines
  s.record(ms(10), 7.0);  // next window boundary: new bucket
  s.record(ms(35), 1.0);  // gap: indices need not be contiguous
  ASSERT_EQ(s.buckets().size(), 3u);
  EXPECT_EQ(s.buckets()[0].index, 0);
  EXPECT_EQ(s.buckets()[0].value, 5.0);
  EXPECT_EQ(s.buckets()[1].index, 1);
  EXPECT_EQ(s.buckets()[1].value, 7.0);
  EXPECT_EQ(s.buckets()[2].index, 3);
  EXPECT_EQ(s.bucket_start(s.buckets()[2]), ms(30));
  EXPECT_EQ(s.max(), 7.0);
}

TEST(WindowedSeries, AggregationKindsWithinAWindow) {
  obs::WindowedSeries sum(kWin, obs::WindowAgg::kSum);
  obs::WindowedSeries mx(kWin, obs::WindowAgg::kMax);
  obs::WindowedSeries last(kWin, obs::WindowAgg::kLast);
  for (const double v : {4.0, 9.0, 2.0}) {
    sum.record(ms(1), v);
    mx.record(ms(1), v);
    last.record(ms(1), v);
  }
  EXPECT_EQ(sum.buckets()[0].value, 15.0);
  EXPECT_EQ(mx.buckets()[0].value, 9.0);
  EXPECT_EQ(last.buckets()[0].value, 2.0);
}

TEST(WindowedSeries, MergeInterleavesAndCombines) {
  obs::WindowedSeries a(kWin, obs::WindowAgg::kSum);
  a.record(ms(5), 1.0);
  a.record(ms(25), 2.0);
  obs::WindowedSeries b(kWin, obs::WindowAgg::kSum);
  b.record(ms(15), 10.0);
  b.record(ms(25), 20.0);

  a.merge(b);
  ASSERT_EQ(a.buckets().size(), 3u);
  EXPECT_EQ(a.buckets()[0].index, 0);
  EXPECT_EQ(a.buckets()[0].value, 1.0);
  EXPECT_EQ(a.buckets()[1].index, 1);
  EXPECT_EQ(a.buckets()[1].value, 10.0);
  EXPECT_EQ(a.buckets()[2].index, 2);
  EXPECT_EQ(a.buckets()[2].value, 22.0);  // same index: kSum adds
}

TEST(WindowedSeries, MergeIdentities) {
  obs::WindowedSeries a(kWin, obs::WindowAgg::kMax);
  a.record(ms(5), 3.0);

  // Merging an empty series is the identity.
  obs::WindowedSeries empty;
  a.merge(empty);
  ASSERT_EQ(a.buckets().size(), 1u);
  EXPECT_EQ(a.buckets()[0].value, 3.0);

  // Merging into an unconfigured series adopts window and agg — the
  // merged-metrics aggregate starts blank.
  obs::WindowedSeries fresh;
  fresh.merge(a);
  EXPECT_TRUE(fresh.configured());
  EXPECT_EQ(fresh.window(), kWin);
  EXPECT_EQ(fresh.agg(), obs::WindowAgg::kMax);
  ASSERT_EQ(fresh.buckets().size(), 1u);
  EXPECT_EQ(fresh.buckets()[0].value, 3.0);
}

TEST(WindowedSeries, RegistryMergeFoldsWindowedSeries) {
  obs::Registry r1;
  r1.windowed("ts.events", kWin, obs::WindowAgg::kSum, {{"shard", "0"}})
      .record(ms(5), 4.0);
  obs::Registry r2;
  r2.windowed("ts.events", kWin, obs::WindowAgg::kSum, {{"shard", "1"}})
      .record(ms(5), 6.0);

  obs::Registry merged;
  merged.merge(r1);
  merged.merge(r2);
  // Distinct labels stay distinct series (per-shard ownership).
  const obs::WindowedSeries* s0 =
      merged.find_windowed("ts.events", {{"shard", "0"}});
  const obs::WindowedSeries* s1 =
      merged.find_windowed("ts.events", {{"shard", "1"}});
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s0->buckets()[0].value, 4.0);
  EXPECT_EQ(s1->buckets()[0].value, 6.0);

  const obs::Json doc = obs::windowed_series_json(merged);
  const std::string text = doc.dump(0);
  EXPECT_NE(text.find("ts.events{shard=0}"), std::string::npos);
  EXPECT_NE(text.find("ts.events{shard=1}"), std::string::npos);
  EXPECT_NE(text.find("\"window_ms\":10"), std::string::npos);
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

TEST(FlightRecorder, RingWrapsAndCountsDropped) {
  obs::FlightRecorder fr(/*capacity=*/4);
  for (std::int64_t i = 0; i < 10; ++i) {
    fr.record(ms(i), obs::FlightRecorder::Kind::kNasRetx, i);
  }
  EXPECT_EQ(fr.capacity(), 4u);
  EXPECT_EQ(fr.size(), 4u);
  EXPECT_EQ(fr.total(), 10u);
  EXPECT_EQ(fr.dropped(), 6u);
  const auto recent = fr.recent();
  ASSERT_EQ(recent.size(), 4u);
  // Oldest-first: events 6..9 survived.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(recent[i].a, static_cast<std::int64_t>(6 + i));
    EXPECT_EQ(recent[i].seq, 6 + i);
  }
}

TEST(FlightRecorder, MergeOrdersByTimeShardSeq) {
  obs::FlightRecorder s0;
  obs::FlightRecorder s1;
  s1.record(ms(1), obs::FlightRecorder::Kind::kCrashCpf, 7, 1);
  s0.record(ms(1), obs::FlightRecorder::Kind::kAttachShed, 3, 0);
  s0.record(ms(2), obs::FlightRecorder::Kind::kReattach, 3);

  const obs::Json doc = obs::FlightRecorder::merge_flight({&s0, &s1});
  const std::string text = doc.dump(0);
  EXPECT_NE(text.find("neutrino.flight-recorder"), std::string::npos);
  EXPECT_NE(text.find("\"dropped\":0"), std::string::npos);
  // Same time: shard 0 sorts before shard 1; later time last.
  const std::size_t shed = text.find("attach_shed");
  const std::size_t crash = text.find("crash_cpf");
  const std::size_t reattach = text.find("reattach");
  ASSERT_NE(shed, std::string::npos);
  ASSERT_NE(crash, std::string::npos);
  ASSERT_NE(reattach, std::string::npos);
  EXPECT_LT(shed, crash);
  EXPECT_LT(crash, reattach);

  // Null recorders are skipped, not dereferenced. (Trailing: the shard
  // tag is the vector index, so a hole in the middle would renumber.)
  const obs::Json doc2 =
      obs::FlightRecorder::merge_flight({&s0, &s1, nullptr});
  EXPECT_EQ(doc2.dump(0), text);
}

// ---------------------------------------------------------------------------
// SloTracker
// ---------------------------------------------------------------------------

TEST(SloTracker, BurnRateMath) {
  // 1% of samples above the p99 bound = burn 1.0 (exactly on target).
  EXPECT_NEAR(obs::SloTracker::burn_rate(1, 100, 0.99), 1.0, 1e-9);
  EXPECT_NEAR(obs::SloTracker::burn_rate(2, 100, 0.99), 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(obs::SloTracker::burn_rate(50, 100, 0.50), 1.0);
  EXPECT_DOUBLE_EQ(obs::SloTracker::burn_rate(0, 100, 0.99), 0.0);
  EXPECT_DOUBLE_EQ(obs::SloTracker::burn_rate(0, 0, 0.99), 0.0);
}

TEST(SloTracker, RecordsViolationsPerWindow) {
  obs::SloTracker slo(kWin);
  slo.set_target(0, "attach", {1.0, 2.0, 4.0});
  slo.record(ms(1), 0, 0.5);   // under every bound
  slo.record(ms(2), 0, 3.0);   // violates p50 + p95
  slo.record(ms(12), 0, 5.0);  // next window; violates all three
  slo.record(ms(3), 1, 99.0);  // index without a target: ignored

  EXPECT_TRUE(slo.any_samples());
  const std::string text = slo.json().dump(0);
  EXPECT_NE(text.find("\"attach\""), std::string::npos);
  EXPECT_NE(text.find("\"count\":3"), std::string::npos);

  obs::SloTracker other(kWin);
  other.set_target(0, "attach", {1.0, 2.0, 4.0});
  other.record(ms(12), 0, 9.0);  // same window as the third sample

  slo.merge(other);
  // 4 samples, 2 of them above p99=4ms: burn_p99 = (2/4)/0.01 = 50.
  const std::string merged = slo.json().dump(0);
  EXPECT_NE(merged.find("\"count\":4"), std::string::npos);
  EXPECT_NE(merged.find("\"p99\":2"), std::string::npos);   // violations
  EXPECT_NE(merged.find("\"p99\":50"), std::string::npos);  // burn (%.9g)
}

TEST(SloTracker, ShardTrackersMergeToTheOneTrackerReport) {
  // The same completions split over two shard trackers: window 0 is only
  // a's, windows 2 and 7 are only b's, windows 1 and 5 are shared, and
  // the two interleave in time. Index 1 has no target and is ignored.
  struct Completion {
    std::int64_t at_ms;
    std::size_t index;
    double pct_ms;
    bool on_a;
  };
  const std::vector<Completion> completions{
      {1, 0, 0.5, true},   {12, 0, 5.0, true},  {13, 2, 7.0, true},
      {15, 0, 4.0, false}, {22, 0, 9.0, false}, {24, 2, 1.0, false},
      {35, 0, 3.0, true},  {51, 0, 4.5, true},  {52, 1, 9.0, true},
      {58, 0, 0.1, false}, {71, 0, 6.0, false}, {72, 2, 2.0, false}};
  const auto tracker = [] {
    obs::SloTracker t(kWin);
    t.set_target(0, "attach", {1.0, 2.0, 4.0});
    t.set_target(2, "handover", {1.5, 3.0, 6.0});
    return t;
  };
  obs::SloTracker one = tracker();
  obs::SloTracker a = tracker();
  obs::SloTracker b = tracker();
  for (const Completion& c : completions) {
    one.record(ms(c.at_ms), c.index, c.pct_ms);
    (c.on_a ? a : b).record(ms(c.at_ms), c.index, c.pct_ms);
  }
  // What one tracker fed every completion reports, byte for byte as the
  // tracker with hand-merged windows wrote it: counts are integers.
  const std::string want =
      R"({"window_ms":10,"procs":{"attach":{"targets_ms":{"p50":1,"p95":2,)"
      R"("p99":4},"count":8,"violations":{"p50":6,"p95":6,"p99":4},)"
      R"("burn":{"p50":1.5,"p95":15,"p99":50},"windows":[[0,1,0,0],)"
      R"([10,2,1,50],[20,1,1,100],[30,1,0,0],[50,2,1,50],[70,1,1,100]]},)"
      R"("handover":{"targets_ms":{"p50":1.5,"p95":3,"p99":6},"count":3,)"
      R"("violations":{"p50":2,"p95":1,"p99":1},"burn":{"p50":1.33333333,)"
      R"("p95":6.66666667,"p99":33.3333333},"windows":[[10,1,1,100],)"
      R"([20,1,0,0],[70,1,0,0]]}}})";
  EXPECT_EQ(one.json().dump(0), want);

  obs::SloTracker ab = a;
  ab.merge(b);
  EXPECT_EQ(ab.json().dump(0), want);
  obs::SloTracker ba = b;
  ba.merge(a);
  EXPECT_EQ(ba.json().dump(0), want);
  // Metrics::merge_from folds every shard into a tracker with no targets.
  obs::SloTracker joined(kWin);
  joined.merge(a);
  joined.merge(b);
  EXPECT_EQ(joined.json().dump(0), want);
}

// ---------------------------------------------------------------------------
// PhaseProfiler
// ---------------------------------------------------------------------------

TEST(PhaseProfiler, AttributesPerLaneAndPhase) {
  obs::PhaseProfiler prof(/*lanes=*/2);
  prof.add(0, obs::Phase::kDispatch, 300);
  prof.add(1, obs::Phase::kDispatch, 100);
  prof.add(0, obs::Phase::kBarrierWait, 600);

  EXPECT_EQ(prof.total_ns(obs::Phase::kDispatch), 400u);
  EXPECT_EQ(prof.lane_ns(1, obs::Phase::kDispatch), 100u);
  EXPECT_EQ(prof.total_ns(obs::Phase::kBarrierWait), 600u);
  EXPECT_EQ(prof.total_ns(obs::Phase::kCodec), 0u);

  const std::string text = prof.json().dump(0);
  EXPECT_NE(text.find("\"dispatch\""), std::string::npos);
  EXPECT_NE(text.find("\"barrier_wait\""), std::string::npos);
  EXPECT_NE(text.find("\"lane_ns\""), std::string::npos);
  // Phases with zero calls are omitted from the shares table.
  EXPECT_EQ(text.find("\"codec\""), std::string::npos);
  // share(dispatch) = 400 / 1000.
  EXPECT_NE(text.find("\"share\":0.4"), std::string::npos);
}

TEST(PhaseProfiler, NullScopeIsANoop) {
  // Must not crash; the disabled path is a single branch.
  auto scope = obs::PhaseProfiler::scoped(nullptr, 3, obs::Phase::kOther);
  obs::PhaseProfiler prof(1);
  {
    auto s = obs::PhaseProfiler::scoped(&prof, 0, obs::Phase::kOther);
  }
  EXPECT_EQ(prof.json()["phases"]["other"]["calls"].dump(0), "1");
}

// ---------------------------------------------------------------------------
// Perfetto trace export
// ---------------------------------------------------------------------------

TEST(TraceExport, ShardWindowsProduceWellFormedTrace) {
  std::vector<sim::parallel::WindowRecord> windows;
  windows.push_back({ms(0), ms(1), 0, {10, 0}});   // shard 1 idle: skipped
  windows.push_back({ms(1), ms(2), 5, {7, 3}});

  const obs::Json doc = obs::perfetto_trace(nullptr, windows);
  const std::string text = doc.dump(0);
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("sharded runtime"), std::string::npos);
  EXPECT_NE(text.find("\"shard 0\""), std::string::npos);
  EXPECT_NE(text.find("\"shard 1\""), std::string::npos);
  EXPECT_NE(text.find("cross-shard messages"), std::string::npos);
  // Complete events carry ts + dur in sim-time microseconds: window 2
  // starts at 1 ms = 1000 us and lasts 1000 us.
  EXPECT_NE(text.find("\"ts\":1000"), std::string::npos);
  EXPECT_NE(text.find("\"dur\":1000"), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);

  // No spans, no windows: still a well-formed (empty) trace.
  const obs::Json empty = obs::perfetto_trace(nullptr, {});
  EXPECT_NE(empty.dump(0).find("\"traceEvents\""), std::string::npos);
}

}  // namespace
}  // namespace neutrino
