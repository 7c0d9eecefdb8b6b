// Trace-file I/O: save and replay workloads as CSV.
//
// The paper replays the commercial ng4T traces; this module makes our
// synthesized equivalents first-class artifacts — write one once, inspect
// it, and replay the identical workload across systems and machines.
//
// Format (header line, then one record per line):
//   time_ns,ue,type,target_region
#pragma once

#include <array>
#include <charconv>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.hpp"
#include "traffic/record.hpp"

namespace neutrino::traffic {

inline Status save_trace(const std::vector<traffic::TraceRecord>& records,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return make_error(StatusCode::kUnavailable, "cannot open " + path);
  }
  out << "time_ns,ue,type,target_region\n";
  for (const traffic::TraceRecord& rec : records) {
    out << rec.at.ns() << ',' << rec.ue.value() << ','
        << static_cast<int>(rec.type) << ',' << rec.target_region << '\n';
  }
  return out ? Status::ok()
             : make_error(StatusCode::kUnavailable, "write failed");
}

inline Result<std::vector<traffic::TraceRecord>> load_trace(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return make_error(StatusCode::kNotFound, "cannot open " + path);
  }
  std::vector<traffic::TraceRecord> records;
  std::string line;
  std::getline(in, line);  // header
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    traffic::TraceRecord rec;
    std::int64_t time_ns = 0;
    std::uint64_t ue = 0;
    int type = 0;
    std::uint32_t target = 0;
    const char* p = line.data();
    const char* end = line.data() + line.size();
    auto field = [&](auto& value) -> bool {
      auto [next, ec] = std::from_chars(p, end, value);
      if (ec != std::errc{}) return false;
      p = next < end && *next == ',' ? next + 1 : next;
      return true;
    };
    if (!field(time_ns) || !field(ue) || !field(type) || !field(target) ||
        type < 0 ||
        type > static_cast<int>(core::ProcedureType::kTau)) {
      return make_error(StatusCode::kMalformed,
                        "bad trace record at line " + std::to_string(line_no));
    }
    rec.at = SimTime::nanoseconds(time_ns);
    rec.ue = UeId(ue);
    rec.type = static_cast<core::ProcedureType>(type);
    rec.target_region = target;
    records.push_back(rec);
  }
  return records;
}

/// Aggregate statistics of a trace (for `tracegen --describe`).
struct TraceSummary {
  std::size_t records = 0;
  std::size_t distinct_ues = 0;
  SimTime span;
  double rate_pps = 0;
  std::array<std::size_t, 7> by_type{};
};

inline TraceSummary summarize(
    const std::vector<traffic::TraceRecord>& records) {
  TraceSummary s;
  s.records = records.size();
  std::unordered_set<std::uint64_t> ues;
  for (const traffic::TraceRecord& rec : records) {
    ues.insert(rec.ue.value());
    s.by_type[static_cast<std::size_t>(rec.type)]++;
  }
  s.distinct_ues = ues.size();
  if (!records.empty()) {
    s.span = records.back().at - records.front().at;
    if (s.span.ns() > 0) {
      s.rate_pps =
          static_cast<double>(records.size()) / s.span.sec();
    }
  }
  return s;
}

}  // namespace neutrino::traffic
