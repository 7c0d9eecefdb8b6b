// Golden-vector regression layer: the canonical wire bytes of the five
// paper messages (Figs. 19-20) are pinned under tests/golden/ for every
// codec, including the svtable (OptimizedFlatBuffers) mode. Two directions
// are locked:
//
//   * encoder stability — today's encoder must reproduce the pinned bytes
//     bit-for-bit (log sizes, replay artifacts, and the Fig. 19/20 size
//     curves all depend on encoding determinism across versions);
//   * decoder compatibility — the pinned bytes must still decode to the
//     original message, so buffers written by an old build stay readable.
//
// An intentional wire-format change regenerates the vectors with
// tests/golden/regen.sh (sets NEUTRINO_GOLDEN_REGEN=1); the diff then
// shows exactly which message x format pairs changed shape.
//
// The FlatBuffers builder is reused across encodes on a thread, so the
// pinned bytes are also checked after shuffled, repeated and concurrent
// encodes, and an encode is checked to allocate only its result.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "s1ap/samples.hpp"
#include "serialize/codec.hpp"

#ifndef NEUTRINO_GOLDEN_DIR
#error "NEUTRINO_GOLDEN_DIR must point at tests/golden"
#endif

// Global allocation counter for the one-allocation-per-encode guarantee.
// Atomic because the concurrent test allocates on four threads at once;
// the default operator new[] forwards here, so array news count too.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// GCC can't see that this new/delete pair is internally consistent
// (malloc in, free out) and warns at inlined call sites.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace neutrino {
namespace {

/// Filename-safe codec tag (stable — these name the pinned files).
constexpr std::string_view slug(ser::WireFormat f) {
  switch (f) {
    case ser::WireFormat::kAsn1Per: return "asn1per";
    case ser::WireFormat::kFlatBuffers: return "flatbuf";
    case ser::WireFormat::kOptimizedFlatBuffers: return "flatbuf_opt";
    case ser::WireFormat::kProtobuf: return "protobuf";
    case ser::WireFormat::kFastCdr: return "fastcdr";
    case ser::WireFormat::kLcm: return "lcm";
    case ser::WireFormat::kFlexBuffers: return "flexbuf";
  }
  return "unknown";
}

std::filesystem::path golden_path(std::string_view message,
                                  ser::WireFormat format) {
  return std::filesystem::path(NEUTRINO_GOLDEN_DIR) /
         (std::string(message) + "." + std::string(slug(format)) + ".hex");
}

bool regen_requested() {
  return std::getenv("NEUTRINO_GOLDEN_REGEN") != nullptr;
}

/// Read a pinned vector; returns empty on missing file (asserted upstream).
std::string read_hex(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::string hex;
  in >> hex;  // single whitespace-delimited token of lowercase hex
  return hex;
}

Bytes from_hex(std::string_view hex) {
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    auto nibble = [](char c) -> Byte {
      return static_cast<Byte>(c <= '9' ? c - '0' : c - 'a' + 10);
    };
    out.push_back(static_cast<Byte>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
  }
  return out;
}

TEST(GoldenVectors, EncodedBytesMatchPinnedVectors) {
  const bool regen = regen_requested();
  if (regen) {
    std::filesystem::create_directories(NEUTRINO_GOLDEN_DIR);
  }
  for (const auto& named : s1ap::samples::figure19_messages()) {
    for (const auto format : ser::kAllWireFormats) {
      const std::string hex = to_hex(ser::encode(format, named.pdu));
      const auto path = golden_path(named.name, format);
      if (regen) {
        std::ofstream out(path);
        out << hex << "\n";
        continue;
      }
      ASSERT_TRUE(std::filesystem::exists(path))
          << path << " missing — run tests/golden/regen.sh";
      EXPECT_EQ(hex, read_hex(path))
          << named.name << " x " << ser::to_string(format)
          << ": encoder output diverged from the pinned vector; if the "
             "wire-format change is intentional run tests/golden/regen.sh";
    }
  }
}

TEST(GoldenVectors, PinnedBytesStillDecodeToOriginal) {
  if (regen_requested()) GTEST_SKIP() << "regenerating, nothing to check";
  for (const auto& named : s1ap::samples::figure19_messages()) {
    for (const auto format : ser::kAllWireFormats) {
      const auto path = golden_path(named.name, format);
      ASSERT_TRUE(std::filesystem::exists(path))
          << path << " missing — run tests/golden/regen.sh";
      const Bytes wire = from_hex(read_hex(path));
      auto decoded = ser::decode<s1ap::S1apPdu>(format, wire);
      ASSERT_TRUE(decoded.is_ok())
          << named.name << " x " << ser::to_string(format) << ": "
          << "pinned bytes no longer decode";
      EXPECT_EQ(*decoded, named.pdu)
          << named.name << " x " << ser::to_string(format)
          << ": decoder no longer reconstructs the original message";
    }
  }
}

TEST(GoldenVectors, SvtablePinnedNoLargerThanStandardFlatBuffers) {
  if (regen_requested()) GTEST_SKIP() << "regenerating, nothing to check";
  // The svtable optimization's whole claim (§4.4) is smaller tables; the
  // pinned vectors must preserve that relation for every figure message.
  for (const auto& named : s1ap::samples::figure19_messages()) {
    const auto opt = read_hex(
        golden_path(named.name, ser::WireFormat::kOptimizedFlatBuffers));
    const auto std_fb =
        read_hex(golden_path(named.name, ser::WireFormat::kFlatBuffers));
    ASSERT_FALSE(opt.empty());
    ASSERT_FALSE(std_fb.empty());
    EXPECT_LE(opt.size(), std_fb.size()) << named.name;
  }
}

bool is_flatbuf(ser::WireFormat f) {
  return f == ser::WireFormat::kFlatBuffers ||
         f == ser::WireFormat::kOptimizedFlatBuffers;
}

/// One encode of the state-isolation tests and the bytes it must produce.
struct EncodeJob {
  std::size_t message = 0;  // index into figure19_messages()
  ser::WireFormat format = ser::WireFormat::kAsn1Per;
  Bytes golden;
};

/// Every (message, format) pair twice, in a seeded shuffled order that
/// starts with the 544-byte standard-FlatBuffers InitialContextSetup (so a
/// fresh builder has to grow its buffer) and alternates the two
/// FlatBuffers modes from one FlatBuffers encode to the next. A builder
/// that carried vtable offsets, alignment, mode or child-stack state from
/// one encode into the next would change a later encoding.
std::vector<EncodeJob> shuffled_jobs(std::uint64_t seed) {
  const auto messages = s1ap::samples::figure19_messages();
  std::vector<EncodeJob> jobs;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t m = 0; m < messages.size(); ++m) {
      for (const auto format : ser::kAllWireFormats) {
        jobs.push_back({m, format,
                        from_hex(read_hex(golden_path(messages[m].name,
                                                      format)))});
      }
    }
  }
  Rng rng(seed);
  for (std::size_t i = jobs.size(); i > 1; --i) {
    std::swap(jobs[i - 1], jobs[rng.next_below(i)]);
  }
  const auto first = std::find_if(jobs.begin(), jobs.end(), [](const auto& j) {
    return j.message == 0 && j.format == ser::WireFormat::kFlatBuffers;
  });
  std::iter_swap(jobs.begin(), first);
  // Both modes appear equally often, so a later job of the other mode is
  // always there to swap in.
  std::optional<ser::WireFormat> last;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!is_flatbuf(jobs[i].format)) continue;
    if (jobs[i].format == last) {
      std::size_t j = i + 1;
      while (!is_flatbuf(jobs[j].format) || jobs[j].format == last) ++j;
      std::swap(jobs[i], jobs[j]);
    }
    last = jobs[i].format;
  }
  return jobs;
}

/// Run the jobs in order; one line per encode that missed its vector.
std::vector<std::string> run_jobs(const std::vector<EncodeJob>& jobs) {
  const auto messages = s1ap::samples::figure19_messages();
  std::vector<std::string> misses;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const EncodeJob& job = jobs[i];
    if (ser::encode(job.format, messages[job.message].pdu) != job.golden) {
      misses.push_back("encode #" + std::to_string(i) + ": " +
                       std::string(messages[job.message].name) + " x " +
                       std::string(ser::to_string(job.format)));
    }
  }
  return misses;
}

TEST(GoldenVectors, ShuffledRepeatedEncodesMatchPinnedVectors) {
  if (regen_requested()) GTEST_SKIP() << "regenerating, nothing to check";
  const std::vector<EncodeJob> jobs = shuffled_jobs(0x901d0001);
  ASSERT_EQ(jobs.size(), 70u);
  ASSERT_EQ(jobs.front().golden.size(), 544u);
  for (const std::string& miss : run_jobs(jobs)) ADD_FAILURE() << miss;
}

TEST(GoldenVectors, ConcurrentEncodesMatchPinnedVectors) {
  if (regen_requested()) GTEST_SKIP() << "regenerating, nothing to check";
  // Four threads, each with its own shuffled order and so its own fresh
  // builder growing from the same first message, encoding at once.
  constexpr int kThreads = 4;
  constexpr int kRounds = 20;
  std::vector<std::vector<EncodeJob>> jobs;
  for (int t = 0; t < kThreads; ++t) {
    jobs.push_back(shuffled_jobs(0x901d0100 + t));
  }
  std::vector<std::vector<std::string>> misses(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (std::string& miss : run_jobs(jobs[t])) {
          misses[t].push_back(std::move(miss));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (const std::string& miss : misses[t]) {
      ADD_FAILURE() << "thread " << t << ", " << miss;
    }
  }
}

TEST(GoldenVectors, FlatBuffersEncodeAllocatesOnlyItsResult) {
  // After one warm-up encode of the same message has grown the builder,
  // the returned Bytes is the only heap allocation.
  for (const auto& named : s1ap::samples::figure19_messages()) {
    for (const auto format : {ser::WireFormat::kFlatBuffers,
                              ser::WireFormat::kOptimizedFlatBuffers}) {
      const Bytes warm = ser::encode(format, named.pdu);
      const std::uint64_t before = g_alloc_count.load();
      const Bytes wire = ser::encode(format, named.pdu);
      const std::uint64_t allocs = g_alloc_count.load() - before;
      EXPECT_EQ(allocs, 1u) << named.name << " x " << ser::to_string(format);
      EXPECT_EQ(wire, warm) << named.name << " x " << ser::to_string(format);
    }
  }
}

}  // namespace
}  // namespace neutrino
