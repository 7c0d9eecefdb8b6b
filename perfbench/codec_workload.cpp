// The codec workload: encode and decode of the five Fig. 19 S1AP messages
// (s1ap::samples::figure19_messages) in all seven wire formats, through
// ser::encode / ser::decode. FlatBuffers are decoded through accessors
// without materialization, as applications read them.
//
// Set-up builds the messages and checks every encoding against the 35
// golden vectors under tests/golden (read only), that each golden vector
// decodes to its message, and that decode(encode(m)) == m; it runs again
// after every round and the fastest instance is the set-up time. The timed
// part runs one encode batch and one decode batch per (format, message)
// pair, in a seed-shuffled order, round after round until the
// repetition's time is spent. Each pair reports its fastest batch mean, as
// bench/codec_timing.hpp does: on a shared host, load from other tenants
// comes and goes within milliseconds and slows the median batch by up to
// a third, while the fastest batch of a repetition stays within about 1%
// of the codec's own cost. Every timed encode is checked against the
// golden size and every timed decode against the set-up result.
#include <algorithm>
#include <fstream>
#include <limits>
#include <numeric>

#include "bench.hpp"
#include "common/rng.hpp"
#include "s1ap/samples.hpp"
#include "serialize/codec.hpp"

namespace neutrino::perfbench {
namespace {

using s1ap::S1apPdu;

constexpr int kBatch = 256;

bool accessor_format(ser::WireFormat f) {
  return f == ser::WireFormat::kFlatBuffers ||
         f == ser::WireFormat::kOptimizedFlatBuffers;
}

ser::FlatBufMode flat_mode(ser::WireFormat f) {
  return f == ser::WireFormat::kFlatBuffers ? ser::FlatBufMode::kStandard
                                            : ser::FlatBufMode::kOptimized;
}

struct Pair {
  std::size_t msg = 0;
  ser::WireFormat format = ser::WireFormat::kAsn1Per;
  std::string encode_span;
  std::string decode_span;
  Bytes encoded;                  // verified against the golden vector
  std::uint64_t access_sum = 0;   // accessor checksum (FlatBuffers)
  // Fastest batch mean so far.
  double encode_ns = std::numeric_limits<double>::infinity();
  double decode_ns = std::numeric_limits<double>::infinity();
};

/// Lowercase hex to bytes; false on odd length or a non-hex digit.
bool from_hex(std::string_view hex, Bytes& out) {
  if (hex.size() % 2 != 0) return false;
  out.clear();
  out.reserve(hex.size() / 2);
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out.push_back(static_cast<Byte>(hi << 4 | lo));
  }
  return true;
}

/// The messages, their (format, message) pairs, and the outcome of the
/// golden and round-trip checks.
struct Workset {
  std::vector<s1ap::samples::NamedPdu> messages;
  std::vector<Pair> pairs;
  std::uint64_t checks = 0;
  std::vector<std::string> mismatches;
};

/// The 35 golden vectors as hex, in (message, format) order. They are
/// the checker's reference, read once per process and not timed as part
/// of the set-up.
std::vector<std::string> read_golden(const std::string& golden_dir) {
  std::vector<std::string> hex;
  for (const auto& m : s1ap::samples::figure19_messages()) {
    for (const ser::WireFormat f : ser::kAllWireFormats) {
      std::ifstream in(golden_dir + "/" + std::string(m.name) + "." +
                       std::string(format_slug(f)) + ".hex");
      std::string token;
      in >> token;
      hex.push_back(std::move(token));
    }
  }
  return hex;
}

Workset set_up(const std::vector<std::string>& golden_hex) {
  Workset w;
  w.messages = s1ap::samples::figure19_messages();
  for (std::size_t m = 0; m < w.messages.size(); ++m) {
    const std::string name(w.messages[m].name);
    const S1apPdu& pdu = w.messages[m].pdu;
    for (const ser::WireFormat f : ser::kAllWireFormats) {
      const std::string slug(format_slug(f));
      const std::string what = name + " x " + slug + ": ";
      Pair p;
      p.msg = m;
      p.format = f;
      p.encode_span = "serialize." + slug + ".encode:" + name;
      p.decode_span = "serialize." + slug + ".decode:" + name;
      p.encoded = ser::encode(f, pdu);

      Bytes golden;
      ++w.checks;
      if (!from_hex(golden_hex[w.pairs.size()], golden) || golden.empty()) {
        w.mismatches.push_back(what + "golden vector missing or unreadable");
      } else if (golden != p.encoded) {
        w.mismatches.push_back(what + "encoding differs from golden vector");
      }
      ++w.checks;
      const auto from_golden = ser::decode<S1apPdu>(f, golden);
      if (!from_golden.is_ok() || !(*from_golden == pdu)) {
        w.mismatches.push_back(what + "golden vector does not decode to m");
      }
      ++w.checks;
      const auto round_trip = ser::decode<S1apPdu>(f, p.encoded);
      if (!round_trip.is_ok() || !(*round_trip == pdu)) {
        w.mismatches.push_back(what + "decode(encode(m)) != m");
      }
      if (accessor_format(f)) {
        ++w.checks;
        const auto sum =
            ser::FlatBufAccessor::access_all<S1apPdu>(p.encoded, flat_mode(f));
        if (sum.is_ok()) {
          p.access_sum = *sum;
        } else {
          w.mismatches.push_back(what + "accessor walk failed");
        }
      }
      w.pairs.push_back(std::move(p));
    }
  }
  return w;
}

/// One timed encode batch and one timed decode batch of a pair; returns
/// the operations that produced a wrong result.
std::uint64_t measure_pair(Pair& p, const S1apPdu& pdu, SpanLog& spans,
                           std::uint64_t& sink) {
  std::uint64_t bad = 0;
  {
    SpanLog::Scope span(spans, p.encode_span);
    for (int i = 0; i < kBatch; ++i) {
      const Bytes b = ser::encode(p.format, pdu);
      bad += b.size() != p.encoded.size();
      sink += b.size();
    }
    p.encode_ns = std::min(p.encode_ns, span.stop() * 1e9 / kBatch);
  }
  {
    SpanLog::Scope span(spans, p.decode_span);
    if (accessor_format(p.format)) {
      const ser::FlatBufMode mode = flat_mode(p.format);
      for (int i = 0; i < kBatch; ++i) {
        const auto sum =
            ser::FlatBufAccessor::access_all<S1apPdu>(p.encoded, mode);
        bad += !sum.is_ok() || *sum != p.access_sum;
        sink += sum.is_ok() ? *sum : 0;
      }
    } else {
      for (int i = 0; i < kBatch; ++i) {
        const auto decoded = ser::decode<S1apPdu>(p.format, p.encoded);
        bad += !decoded.is_ok();
        sink += decoded.is_ok() ? 1u : 0u;
      }
    }
    p.decode_ns = std::min(p.decode_ns, span.stop() * 1e9 / kBatch);
  }
  return bad;
}

}  // namespace

obs::Json run_codec_repetition(const Options& opts) {
  const auto t0 = Clock::now();
  const std::vector<std::string> golden_hex = read_golden(opts.golden_dir);
  auto s0 = Clock::now();
  Workset w = set_up(golden_hex);
  double setup_s = seconds_since(s0);
  std::uint64_t attempted = w.checks;
  std::uint64_t failed = w.mismatches.size();

  std::vector<std::size_t> order(w.pairs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(opts.seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }

  // A traced repetition alternates traced and untraced rounds of identical
  // work; the ratio of their mean round times is the tracing overhead.
  SpanLog spans(opts.trace);
  SpanLog quiet(false);
  double round_s[2] = {0, 0};
  int rounds[2] = {0, 0};
  std::uint64_t sink = 0;
  do {
    const int traced = opts.trace && (rounds[0] + rounds[1]) % 2 == 1;
    SpanLog& log = traced ? spans : quiet;
    SpanLog::Scope round_span(log, "codec.round");
    for (const std::size_t idx : order) {
      Pair& p = w.pairs[idx];
      failed += measure_pair(p, w.messages[p.msg].pdu, log, sink);
      attempted += 2 * kBatch;
    }
    round_s[traced] += round_span.stop();
    ++rounds[traced];
    // The set-up runs again after every round and its fastest instance
    // counts, so that, like the fastest batch, it is drawn from the whole
    // repetition rather than from its first milliseconds.
    s0 = Clock::now();
    const Workset again = set_up(golden_hex);
    setup_s = std::min(setup_s, seconds_since(s0));
    attempted += again.checks;
    failed += again.mismatches.size();
  } while (seconds_since(t0) < opts.seconds ||
           (opts.trace && rounds[1] == 0));

  obs::Json out;
  out["setup_s"] = setup_s;
  out["attempted"] = attempted;
  out["failed"] = failed;
  obs::Json& bad = out["mismatches"];
  bad.make_array();
  for (const std::string& m : w.mismatches) bad.push_back(m);
  obs::Json& list = out["pairs"];
  list.make_array();
  for (const Pair& p : w.pairs) {
    obs::Json row;
    row["format"] = format_slug(p.format);
    row["message"] = w.messages[p.msg].name;
    row["encode_ns"] = p.encode_ns;
    row["decode_ns"] = p.decode_ns;
    row["bytes"] = static_cast<std::uint64_t>(p.encoded.size());
    list.push_back(std::move(row));
  }
  out["rounds"] = rounds[0] + rounds[1];
  out["untraced_round_s"] = rounds[0] > 0 ? round_s[0] / rounds[0] : 0.0;
  out["traced_round_s"] = rounds[1] > 0 ? round_s[1] / rounds[1] : 0.0;
  out["checksum"] = sink;
  out["peak_rss_mb"] = peak_rss_mib();
  if (opts.trace) out["spans"] = spans.json();
  return out;
}

}  // namespace neutrino::perfbench
