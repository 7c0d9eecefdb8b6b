// traffic/trace_io.hpp: trace file round trips and summaries.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "traffic/engine.hpp"
#include "traffic/trace_io.hpp"

namespace neutrino::traffic {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(TraceIo, SaveLoadRoundTrip) {
  const auto original = traffic::uniform(
      5'000.0, SimTime::seconds(1),
      {.service_request = 0.5, .handover = 0.2}, 100'000, 4, /*seed=*/3);
  const std::string path = temp_path("neutrino_trace_roundtrip.csv");

  ASSERT_TRUE(save_trace(original, path).is_ok());
  auto loaded = load_trace(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  ASSERT_EQ(loaded->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*loaded)[i].at, original[i].at);
    EXPECT_EQ((*loaded)[i].ue, original[i].ue);
    EXPECT_EQ((*loaded)[i].type, original[i].type);
    EXPECT_EQ((*loaded)[i].target_region, original[i].target_region);
  }
  std::filesystem::remove(path);
}

TEST(TraceIo, MissingFileReported) {
  auto r = load_trace("/nonexistent/definitely/missing.csv");
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(TraceIo, MalformedLineReported) {
  const std::string path = temp_path("neutrino_trace_bad.csv");
  {
    std::ofstream out(path);
    out << "time_ns,ue,type,target_region\n";
    out << "100,5,0,0\n";
    out << "not-a-number,5,0,0\n";
  }
  auto r = load_trace(path);
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kMalformed);
  std::filesystem::remove(path);
}

TEST(TraceIo, OutOfRangeTypeRejected) {
  const std::string path = temp_path("neutrino_trace_type.csv");
  {
    std::ofstream out(path);
    out << "time_ns,ue,type,target_region\n";
    out << "100,5,99,0\n";
  }
  auto r = load_trace(path);
  EXPECT_FALSE(r.is_ok());
  std::filesystem::remove(path);
}

TEST(TraceIo, SummaryStatistics) {
  const auto records =
      traffic::wave(2'000, core::ProcedureType::kAttach, SimTime{},
                    SimTime::milliseconds(500), /*seed=*/9);
  const auto s = summarize(records);
  EXPECT_EQ(s.records, 2'000u);
  EXPECT_EQ(s.distinct_ues, 2'000u);
  EXPECT_LE(s.span, SimTime::milliseconds(500));
  EXPECT_EQ(s.by_type[static_cast<std::size_t>(core::ProcedureType::kAttach)],
            2'000u);
}

}  // namespace
}  // namespace neutrino::traffic
