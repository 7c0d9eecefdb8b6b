// Observability subsystem: JSON writer and reader, metrics registry,
// periodic sampler, pool occupancy, and the procedure tracer driven
// end-to-end through an attach + handover + CPF-crash scenario.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "core/cost_model.hpp"
#include "core/system.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "sim/server_pool.hpp"

namespace neutrino {
namespace {

// ---------------------------------------------------------------- Json --

TEST(Json, ScalarsAndNesting) {
  obs::Json doc;
  doc["schema"] = "test";
  doc["version"] = 1;
  doc["ratio"] = 0.5;
  doc["on"] = true;
  doc["nothing"] = nullptr;
  doc["nested"]["list"].push_back(1);
  doc["nested"]["list"].push_back(2);
  EXPECT_EQ(doc.dump(0),
            R"({"schema":"test","version":1,"ratio":0.5,"on":true,)"
            R"("nothing":null,"nested":{"list":[1,2]}})");
}

TEST(Json, KeysKeepInsertionOrder) {
  obs::Json doc;
  doc["z"] = 1;
  doc["a"] = 2;
  doc["z"] = 3;  // re-assign must not re-order or duplicate
  EXPECT_EQ(doc.dump(0), R"({"z":3,"a":2})");
}

TEST(Json, EscapesStrings) {
  obs::Json doc;
  doc["s"] = "a\"b\\c\nd\te";
  EXPECT_EQ(doc.dump(0), "{\"s\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(Json, EmptyContainersAndNonFinite) {
  obs::Json doc;
  doc["arr"].make_array();
  doc["obj"].make_object();
  doc["inf"] = 1.0 / 0.0;  // JSON has no inf: becomes null
  EXPECT_EQ(doc.dump(0), R"({"arr":[],"obj":{},"inf":null})");
}

TEST(Json, ParseReadsBackEveryDump) {
  obs::Json doc;
  // Every escape escape() writes: the five short ones and \u00XX.
  doc["escapes"] = std::string{"q\"b\\n\nt\tr\r\x01\x08\x0c\x1f end"};
  doc["ints"].push_back(std::numeric_limits<std::int64_t>::min());
  doc["ints"].push_back(std::numeric_limits<std::int64_t>::max());
  doc["ints"].push_back(0);
  // Doubles; 2.0 dumps as "2" and reads back as an integer. -0.0 is left
  // out: its "-0" reads back as 0.
  for (const double d : {0.1, -2.5e-7, 1e300, 123456.789, 2.0}) {
    doc["doubles"].push_back(d);
  }
  doc["non_finite"].push_back(std::numeric_limits<double>::infinity());
  doc["non_finite"].push_back(std::numeric_limits<double>::quiet_NaN());
  doc["nested"]["empty_array"].make_array();
  doc["nested"]["empty_object"].make_object();
  obs::Json& inner = doc["nested"]["list"].push_back(obs::Json{});
  inner["on"] = true;
  inner["off"] = false;
  inner["none"] = nullptr;
  inner["deeper"].push_back(obs::Json{}).make_array();
  for (const int indent : {0, 2}) {
    const std::string text = doc.dump(indent);
    const std::optional<obs::Json> back = obs::Json::parse(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(back->dump(indent), text);
  }

  const std::optional<obs::Json> back = obs::Json::parse(doc.dump(0));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->find("escapes")->string_or(""),
            "q\"b\\n\nt\tr\r\x01\x08\x0c\x1f end");
  const obs::Json* ints = back->find("ints");
  ASSERT_NE(ints, nullptr);
  ASSERT_EQ(ints->size(), 3u);
  EXPECT_EQ(ints->at(0).int_or(0), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(ints->at(1).int_or(0), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(back->find("doubles")->at(2).int_or(-1), -1);  // 1e300
  EXPECT_EQ(back->find("doubles")->at(3).int_or(0), 123456);
  EXPECT_EQ(back->find("missing"), nullptr);
  EXPECT_EQ(ints->find("escapes"), nullptr);  // not an object
  EXPECT_EQ(ints->string_or("fallback"), "fallback");
}

TEST(Json, ParseRejectsMalformedDocuments) {
  for (const char* bad : {
           "",                             // empty document
           "{} trailing", "[1] [2]",       // trailing junk
           "{\"a\":1,}", "[1,2,]",         // trailing commas
           "\"open", "\"escape at end\\",  // unterminated strings
           "[1,2", "{\"a\":{\"b\":1}",     // unterminated containers
           "\"\\x41\"",                    // unknown escape
           "\"\\u0100\"",                  // \u above 0xff
           "\"\\u00g1\"", "\"\\u00\"",     // not four hex digits
           "99999999999999999999",         // out of int64 range
           "1-2", "+1",                    // not one JSON number
           "tru",                          // broken literal
       }) {
    EXPECT_FALSE(obs::Json::parse(bad).has_value()) << bad;
  }
  // Nesting is bounded: 256 levels read back, 100k are rejected, not a
  // stack overflow.
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_EQ(obs::Json::parse(nested(256))->dump(0), nested(256));
  EXPECT_FALSE(obs::Json::parse(nested(100'000)).has_value());
  EXPECT_EQ(obs::Json::parse("\"\\u00ff\"")->string_or(""), "\xff");
  EXPECT_EQ(obs::Json::parse(" [ 1 , {\"a\" : \"b\"} ] \n")->dump(0),
            R"([1,{"a":"b"}])");
}

TEST(Json, ParseRejectsARepeatedKey) {
  // Which of two values a hand-edited artifact meant is a guess, so a
  // key repeated within one object rejects the document; the same key in
  // two different objects is fine.
  EXPECT_FALSE(obs::Json::parse(R"({"seed":1,"seed":2})").has_value());
  EXPECT_FALSE(
      obs::Json::parse(R"({"a":{"x":1,"y":2,"x":3}})").has_value());
  EXPECT_TRUE(obs::Json::parse(R"({"a":{"x":1},"b":{"x":2}})").has_value());
}

// ------------------------------------------------------------ Registry --

TEST(Registry, SameNameAndLabelsYieldSameInstrument) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x.count", {{"k", "v"}, {"a", "b"}});
  // Label order must not matter: keys sort labels.
  obs::Counter& b = reg.counter("x.count", {{"a", "b"}, {"k", "v"}});
  EXPECT_EQ(&a, &b);
  ++a;
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(obs::Registry::key("x.count", {{"k", "v"}, {"a", "b"}}),
            "x.count{a=b,k=v}");
}

TEST(Registry, FindDoesNotCreate) {
  obs::Registry reg;
  EXPECT_EQ(reg.find_counter("untouched"), nullptr);
  reg.counter("touched") += 3;
  ASSERT_NE(reg.find_counter("touched"), nullptr);
  EXPECT_EQ(reg.find_counter("touched")->value(), 3u);
}

TEST(Registry, ReferencesSurviveRegistryMove) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("stable");
  obs::Registry moved = std::move(reg);
  ++c;
  ASSERT_NE(moved.find_counter("stable"), nullptr);
  EXPECT_EQ(moved.find_counter("stable")->value(), 1u);
}

TEST(Registry, VisitorsIterateInKeyOrder) {
  obs::Registry reg;
  reg.counter("b");
  reg.counter("a", {{"z", "1"}});
  reg.counter("a");
  std::vector<std::string> keys;
  reg.for_each_counter(
      [&](const std::string& k, const obs::Counter&) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "a{z=1}", "b"}));
}

// ----------------------------------------------------- stats::summary --

TEST(StatsSummary, MatchesPercentiles) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.add(i);
  const auto s = rec.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, rec.mean());
  EXPECT_DOUBLE_EQ(s.p50, rec.percentile(0.5));
  EXPECT_DOUBLE_EQ(s.p99, rec.percentile(0.99));
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_EQ(LatencyRecorder{}.summary().count, 0u);
}

// -------------------------------------------- ServerPool + sampler ----

TEST(ServerPoolOccupancy, TracksDepthAndBacklog) {
  sim::EventLoop loop;
  sim::ServerPool pool(loop, 1);
  int done = 0;
  pool.submit(SimTime::microseconds(10), [&] { ++done; });
  pool.submit(SimTime::microseconds(10), [&] { ++done; });
  EXPECT_EQ(pool.queue_depth(), 2u);
  EXPECT_EQ(pool.backlog(), SimTime::microseconds(20));
  loop.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.backlog(), SimTime{});
}

TEST(ServerPoolOccupancy, ResetDropsInflight) {
  sim::EventLoop loop;
  sim::ServerPool pool(loop, 1);
  int done = 0;
  pool.submit(SimTime::microseconds(10), [&] { ++done; });
  pool.reset();
  EXPECT_EQ(pool.queue_depth(), 0u);
  loop.run();
  EXPECT_EQ(done, 0);  // crashed work never completes
}

TEST(PeriodicSampler, BoundedTickChain) {
  sim::EventLoop loop;
  int ticks = 0;
  obs::PeriodicSampler::schedule(loop, SimTime::milliseconds(1),
                                 SimTime::milliseconds(10),
                                 [&] { ++ticks; });
  loop.run();  // a bounded chain must drain — this returning is the test
  EXPECT_EQ(ticks, 10);
}

// Ticks reserve their sequence numbers when the sampler is scheduled, so
// they tie-break with same-time events exactly like ticks scheduled one by
// one (the sampler's behavior before it became a stream, kept here as the
// oracle), while the queue holds a single tick.
TEST(PeriodicSampler, OnePendingTickTieBreaksLikeEagerTicks) {
  using Log = std::vector<std::string>;
  const auto scenario = [](bool eager) {
    sim::EventLoop loop;
    Log log;
    const auto mark = [&loop, &log](const char* what) {
      log.push_back(std::string(what) + "@" +
                    std::to_string(loop.now().ns() / 1'000'000));
    };
    loop.schedule_at(SimTime::milliseconds(2), [&] { mark("before"); });
    const auto tick = [&] {
      mark("tick");
      // Lands on the next tick's time, after that tick: the tick's
      // sequence number was reserved first.
      loop.schedule_after(SimTime::milliseconds(1), [&] { mark("child"); });
    };
    if (eager) {
      for (SimTime at = SimTime::milliseconds(1);
           at <= SimTime::milliseconds(3); at = at + SimTime::milliseconds(1)) {
        loop.schedule_at(at, tick);
      }
    } else {
      obs::PeriodicSampler::schedule(loop, SimTime::milliseconds(1),
                                     SimTime::milliseconds(3), tick);
      EXPECT_EQ(loop.pending(), 2u);  // the peer and the first tick
    }
    loop.schedule_at(SimTime::milliseconds(2), [&] { mark("after"); });
    loop.schedule_at(SimTime::milliseconds(1), [&] { mark("after"); });
    loop.run();
    return log;
  };
  const Log want = {"tick@1",  "after@1", "before@2", "tick@2", "after@2",
                    "child@2", "tick@3",  "child@3",  "child@4"};
  EXPECT_EQ(scenario(/*eager=*/true), want);
  EXPECT_EQ(scenario(/*eager=*/false), want);
}

// ------------------------------------------------------- ProcTracer ----

// Attach + inter-region handover + a service request whose primary CPF
// crashes mid-flight (Neutrino replays it onto a backup).
struct TracedScenario : ::testing::Test {
  void SetUp() override {
    core::TopologyConfig topo;
    topo.l1_per_l2 = 2;
    system = std::make_unique<core::System>(
        loop, core::neutrino_policy(), topo, core::ProtocolConfig{}, costs,
        metrics);
    obs::TracerConfig tc;
    tc.record_events = true;
    tc.keep_all = true;
    tc.decompose = true;
    tracer = std::make_unique<obs::ProcTracer>(tc);
    system->attach_tracer(*tracer);

    system->frontend().start_procedure(attacher,
                                       core::ProcedureType::kAttach);
    system->frontend().preattach(walker, 0);
    loop.schedule_at(SimTime::milliseconds(1), [&] {
      system->frontend().start_procedure(
          walker, core::ProcedureType::kHandover, /*target_region=*/1);
    });
    system->frontend().preattach(victim, 0);
    loop.schedule_at(SimTime::milliseconds(2), [&] {
      system->frontend().start_procedure(
          victim, core::ProcedureType::kServiceRequest);
    });
    const CpfId doomed = system->primary_cpf_for(victim, 0);
    loop.schedule_at(SimTime::milliseconds(2) + SimTime::microseconds(25),
                     [&, doomed] { system->crash_cpf(doomed); });
    loop.run_until(SimTime::seconds(10));
  }

  sim::EventLoop loop;
  core::FixedCostModel costs{SimTime::microseconds(10)};
  core::Metrics metrics;
  std::unique_ptr<core::System> system;
  std::unique_ptr<obs::ProcTracer> tracer;
  const UeId attacher{1};
  const UeId walker{2};
  const UeId victim{7};
};

TEST_F(TracedScenario, AllProceduresComplete) {
  EXPECT_EQ(metrics.procedures_completed, 3u);
  EXPECT_EQ(tracer->spans_completed(), 3u);
  EXPECT_EQ(tracer->active_spans(), 0u);
  EXPECT_EQ(tracer->all().size(), 3u);
}

TEST_F(TracedScenario, TimelinesAreMonotoneAndComplete) {
  for (const obs::Span& s : tracer->all()) {
    EXPECT_TRUE(s.completed);
    EXPECT_GT(s.end, s.start) << "ue " << s.ue.value();
    ASSERT_FALSE(s.events.empty()) << "ue " << s.ue.value();
    // First hop is the UE's uplink leaving at procedure start.
    EXPECT_EQ(s.events.front().start, s.start);
    SimTime prev = s.start;
    for (const obs::HopEvent& e : s.events) {
      EXPECT_GE(e.start, prev) << "hops must be recorded in time order";
      EXPECT_GE(e.end, e.start);
      prev = e.start;
    }
  }
}

TEST_F(TracedScenario, DecompositionTilesThePct) {
  for (const obs::Span& s : tracer->all()) {
    // Charged-to-kOther remainder makes the components exact.
    EXPECT_EQ(s.attributed_ns(), s.duration().ns())
        << "ue " << s.ue.value();
  }
  // And the tracer's folded table agrees: per proc type, the mean
  // components sum to the mean total.
  for (const auto type :
       {core::ProcedureType::kAttach, core::ProcedureType::kHandover,
        core::ProcedureType::kServiceRequest}) {
    const std::string proc{core::to_string(type)};
    const obs::Decomposition& d = tracer->decomposition(type);
    ASSERT_FALSE(d.total.empty()) << proc;
    double component_sum = 0;
    for (const LatencyRecorder& h : d.component) {
      ASSERT_FALSE(h.empty()) << proc;
      component_sum += h.mean();
    }
    EXPECT_NEAR(component_sum, d.total.mean(), d.total.mean() * 0.01) << proc;
  }
}

TEST_F(TracedScenario, CrashCrossingSpanIsRetainedAsFailed) {
  ASSERT_EQ(tracer->failed().size(), 1u);
  const obs::Span& s = tracer->failed().front();
  EXPECT_EQ(s.ue, victim);
  EXPECT_TRUE(s.under_failure);
  EXPECT_TRUE(s.completed);
  // Its timeline crosses two CPFs: the doomed primary and the backup the
  // CTA replayed onto.
  bool saw_second_cpf = false;
  const CpfId doomed = system->primary_cpf_for(victim, 0);
  for (const obs::HopEvent& e : s.events) {
    if (std::string_view{e.node} == "cpf" && e.node_id != doomed.value()) {
      saw_second_cpf = true;
    }
  }
  EXPECT_TRUE(saw_second_cpf);
  EXPECT_GE(metrics.replays.value(), 1u);
}

TEST_F(TracedScenario, RegistryCountersMatchLegacyMetrics) {
  const obs::Registry& reg = metrics.registry;
  const auto expect_matches = [&](const char* name, const obs::Counter& c) {
    const obs::Counter* found = reg.find_counter(name);
    ASSERT_NE(found, nullptr) << name;
    EXPECT_EQ(found->value(), c.value()) << name;
  };
  expect_matches("core.procedures_started", metrics.procedures_started);
  expect_matches("core.procedures_completed", metrics.procedures_completed);
  expect_matches("core.replays", metrics.replays);
  expect_matches("core.checkpoints_sent", metrics.checkpoints_sent);
  expect_matches("core.ryw_violations", metrics.ryw_violations);

  // Per-proc completion counters sum to the flat total.
  std::uint64_t completions = 0;
  reg.for_each_counter([&](const std::string& k, const obs::Counter& c) {
    if (k.rfind("frontend.completions", 0) == 0) completions += c.value();
  });
  EXPECT_EQ(completions, metrics.procedures_completed.value());

  // The crash and its recovery were counted with labels.
  std::uint64_t crashes = 0, recoveries = 0;
  reg.for_each_counter([&](const std::string& k, const obs::Counter& c) {
    if (k.rfind("cpf.crashes", 0) == 0) crashes += c.value();
    if (k.rfind("cta.recoveries", 0) == 0) recoveries += c.value();
  });
  EXPECT_EQ(crashes, 1u);
  EXPECT_GE(recoveries, 1u);
}

TEST_F(TracedScenario, DumpJsonCarriesTimelines) {
  const obs::Json dump = tracer->dump_json();
  const std::string out = dump.dump(0);
  EXPECT_NE(out.find("\"schema\":\"neutrino.trace-dump\""), std::string::npos);
  EXPECT_NE(out.find("\"hops\""), std::string::npos);
  EXPECT_NE(out.find("service_request"), std::string::npos);
}

TEST(TracerDisabled, SystemRunsWithoutTracer) {
  sim::EventLoop loop;
  core::FixedCostModel costs{SimTime::microseconds(10)};
  core::Metrics metrics;
  core::System system(loop, core::neutrino_policy(), {}, {}, costs, metrics);
  system.frontend().start_procedure(UeId{1}, core::ProcedureType::kAttach);
  loop.run_until(SimTime::seconds(5));
  EXPECT_EQ(metrics.procedures_completed, 1u);
}

}  // namespace
}  // namespace neutrino
