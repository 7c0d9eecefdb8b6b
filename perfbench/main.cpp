// perfbench: one repetition of one benchmark workload. perfbench/run.py
// builds this binary, runs as many repetitions as fit the requested time,
// and turns them into the benchmark's metrics.
//
//   perfbench --workload storm|mobility-failover|codec --seed N
//             --table FILE [--variant K] [--seconds S] [--trace 0|1]
//             [--golden DIR]
//       Prints the repetition's raw measurements as one JSON line.
//       --variant picks a simulator configuration (0 = measured),
//       --seconds how long a codec repetition measures, --trace records
//       spans. The pinned cost table is required.
//   perfbench --check-table FILE
//       Round-trip checks of a pinned cost table.
//   perfbench --capture-table FILE
//       Measure the real codecs once (core::MeasuredCostModel) and write
//       the pinned table.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "obs/throughput.hpp"

namespace neutrino::perfbench {

double peak_rss_mib() {
  return static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0);
}

obs::Json SpanLog::json() const {
  const auto ns = [this](Clock::time_point t) {
    return static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
            .count());
  };
  obs::Json out;
  out.make_array();
  for (const Span& s : spans_) {
    obs::Json row;
    row.push_back(s.name);
    row.push_back(s.parent);
    row.push_back(ns(s.start));
    row.push_back(ns(s.end));
    out.push_back(std::move(row));
  }
  return out;
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--table FILE [--variant K] [--seconds S] [--trace 0|1] "
               "[--golden DIR]\n       perfbench --check-table FILE\n"
               "       perfbench --capture-table FILE\n",
               why.c_str());
  std::exit(2);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The committed table must be in canonical form, parse back to itself,
/// survive a capture through the CostModel accessors, and a damaged copy
/// must be refused.
int check_table(const std::string& path) {
  PinnedCostModel table;
  std::string error;
  if (!table.load(path, error)) {
    std::fprintf(stderr, "FAIL cost table does not load: %s\n",
                 error.c_str());
    return 1;
  }
  int failures = 0;
  auto check = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
    failures += ok ? 0 : 1;
  };
  const std::string text = table.to_text();
  PinnedCostModel reparsed;
  check(reparsed.parse(text, error) && reparsed.to_text() == text &&
            reparsed.hash() == table.hash(),
        "cost table parses back from its canonical text");
  check(read_file(path) == text, "committed cost table is canonical");
  check(PinnedCostModel::capture(table).to_text() == text,
        "cost table round-trips through the CostModel accessors");
  check(!PinnedCostModel().parse(text.substr(0, text.size() / 2), error),
        "a truncated cost table is refused");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace neutrino::perfbench

int main(int argc, char** argv) {
  using namespace neutrino;
  using namespace neutrino::perfbench;
  Options opts;
  std::string table_path, check_path, capture_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--variant") {
      opts.variant = std::atoi(value().c_str());
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      opts.trace = t == "1";
    } else if (arg == "--table") {
      table_path = value();
    } else if (arg == "--golden") {
      opts.golden_dir = value();
    } else if (arg == "--check-table") {
      check_path = value();
    } else if (arg == "--capture-table") {
      capture_path = value();
    } else {
      usage("unknown argument " + arg);
    }
  }

  if (!check_path.empty()) return check_table(check_path);
  if (!capture_path.empty()) {
    const core::MeasuredCostModel measured;
    const PinnedCostModel table = PinnedCostModel::capture(measured);
    std::ofstream out(capture_path);
    out << table.to_text();
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   capture_path.c_str());
      return 1;
    }
    std::printf("cost_table_hash=%s\n", table.hash().c_str());
    return 0;
  }

  // Refuse to run without the pinned table: with measured costs two runs
  // of one seed could simulate different work.
  if (table_path.empty()) usage("--table is required");
  PinnedCostModel table;
  std::string error;
  if (!table.load(table_path, error)) {
    std::fprintf(stderr, "perfbench: bad cost table: %s\n", error.c_str());
    return 1;
  }
  obs::Json result;
  if (opts.workload == "codec") {
    if (opts.golden_dir.empty()) usage("codec needs --golden DIR");
    result = run_codec_repetition(opts);
  } else {
    result = run_sim_repetition(opts, table);
  }
  if (result.is_null()) {
    usage("unknown workload '" + opts.workload + "' or variant");
  }
  result["workload"] = opts.workload;
  result["seed"] = opts.seed;
  result["cost_table_hash"] = table.hash();
  std::printf("%s\n", result.dump(0).c_str());
  return 0;
}
