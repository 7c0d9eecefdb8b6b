// Structure-aware codec fuzzing: random schema-valid messages built
// through the field visitor itself (every field, optional, vector, and
// CHOICE alternative reachable from S1AP-PDU gets exercised), checked for
//
//   * roundtrip identity on every wire format,
//   * cross-codec agreement (asn1per vs flatbuf vs svtable decode to the
//     same logical value),
//   * clean failure on truncated and bit-flipped buffers for the formats
//     that bounds-check their input,
//   * FlatBuffers encodings independent of what the thread's reused
//     builder encoded before.
//
// The ctest run uses a small deterministic corpus; check.sh raises
// NEUTRINO_FUZZ_ITERS in the ASan stage where memory errors surface.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <type_traits>

#include "common/rng.hpp"
#include "s1ap/pdu.hpp"
#include "s1ap/samples.hpp"
#include "serialize/codec.hpp"

namespace neutrino {
namespace {

int fuzz_iters(int dflt) {
  if (const char* s = std::getenv("NEUTRINO_FUZZ_ITERS")) {
    const int n = std::atoi(s);
    if (n > 0) return n;
  }
  return dflt;
}

/// visit_fields visitor that fills a message with random but schema-valid
/// content. Bounded scalars draw inside their IntBounds (with the bounds
/// themselves over-sampled — that is where length determinants and varint
/// widths flip); unions pick a uniformly random alternative.
class RandomFiller {
 public:
  explicit RandomFiller(Rng& rng) : rng_(&rng) {}

  template <typename T>
  void operator()(int /*id*/, std::string_view /*name*/, T& value) {
    fill(value);
  }
  template <typename T>
  void operator()(int /*id*/, std::string_view /*name*/, T& value,
                  ser::IntBounds bounds) {
    fill_scalar(value, bounds);
  }

  template <typename T>
  void fill(T& value) {
    if constexpr (ser::is_optional<T>::value) {
      if (rng_->next_bool(0.25)) {
        value.reset();
      } else {
        value.emplace();
        fill(*value);
      }
    } else if constexpr (ser::is_tagged_union<T>::value) {
      value.emplace_by_index(rng_->next_below(T::kAlternativeCount),
                             [&](auto& alt) { fill(alt); });
    } else if constexpr (ser::is_std_vector<T>::value) {
      value.clear();
      value.resize(rng_->next_below(4));
      for (auto& elem : value) fill(elem);
    } else if constexpr (ser::BytesField<T>) {
      value.resize(rng_->next_below(25));
      for (auto& b : value) b = static_cast<Byte>(rng_->next_u64());
    } else if constexpr (ser::StringField<T>) {
      value.resize(rng_->next_below(13));
      for (auto& c : value) {
        c = static_cast<char>('a' + rng_->next_below(26));
      }
    } else if constexpr (ser::FieldStruct<T>) {
      value.visit_fields(*this);
    } else {
      fill_scalar(value, ser::natural_bounds<T>());
    }
  }

 private:
  template <typename T>
  void fill_scalar(T& value, ser::IntBounds bounds) {
    if constexpr (std::is_same_v<T, bool>) {
      value = rng_->next_bool(0.5);
    } else {
      const double sel = rng_->next_double();
      std::int64_t v;
      if (sel < 0.1) {
        v = bounds.lo;
      } else if (sel < 0.2) {
        v = bounds.hi;
      } else {
        v = bounds.lo +
            static_cast<std::int64_t>(rng_->next_below(bounds.range()));
      }
      value = static_cast<T>(v);
    }
  }

  Rng* rng_;
};

s1ap::S1apPdu random_pdu(Rng& rng) {
  s1ap::S1apPdu pdu;
  RandomFiller filler(rng);
  pdu.visit_fields(filler);
  return pdu;
}

// Bounds-checking formats, mirrored from codec_robustness_test: the
// FlatBuffers family trusts its input by design, so corruption runs only
// cover the sequential decoders.
constexpr ser::WireFormat kCheckedFormats[] = {
    ser::WireFormat::kAsn1Per, ser::WireFormat::kProtobuf,
    ser::WireFormat::kFastCdr, ser::WireFormat::kLcm,
    ser::WireFormat::kFlexBuffers,
};

TEST(CodecFuzz, RandomPdusRoundtripOnEveryFormat) {
  Rng rng(0x5eed0001);
  const int iters = fuzz_iters(150);
  for (int i = 0; i < iters; ++i) {
    const auto pdu = random_pdu(rng);
    for (const auto format : ser::kAllWireFormats) {
      const Bytes wire = ser::encode(format, pdu);
      auto decoded = ser::decode<s1ap::S1apPdu>(format, wire);
      ASSERT_TRUE(decoded.is_ok())
          << ser::to_string(format) << " iter " << i;
      ASSERT_EQ(*decoded, pdu) << ser::to_string(format) << " iter " << i;
    }
  }
}

TEST(CodecFuzz, CrossCodecDecodesAgree) {
  // The paper's apples-to-apples size comparison (Fig. 19) only holds if
  // every codec carries the *same* logical value: decode asn1per, flatbuf,
  // and the svtable variant and require field-level agreement.
  Rng rng(0x5eed0002);
  const int iters = fuzz_iters(150);
  for (int i = 0; i < iters; ++i) {
    const auto pdu = random_pdu(rng);
    auto per = ser::decode<s1ap::S1apPdu>(
        ser::WireFormat::kAsn1Per,
        ser::encode(ser::WireFormat::kAsn1Per, pdu));
    auto fb = ser::decode<s1ap::S1apPdu>(
        ser::WireFormat::kFlatBuffers,
        ser::encode(ser::WireFormat::kFlatBuffers, pdu));
    auto svt = ser::decode<s1ap::S1apPdu>(
        ser::WireFormat::kOptimizedFlatBuffers,
        ser::encode(ser::WireFormat::kOptimizedFlatBuffers, pdu));
    ASSERT_TRUE(per.is_ok() && fb.is_ok() && svt.is_ok()) << "iter " << i;
    ASSERT_EQ(*per, *fb) << "iter " << i;
    ASSERT_EQ(*fb, *svt) << "iter " << i;
  }
}

TEST(CodecFuzz, TruncatedRandomPdusFailCleanly) {
  Rng rng(0x5eed0003);
  const int iters = fuzz_iters(150);
  for (int i = 0; i < iters; ++i) {
    const auto pdu = random_pdu(rng);
    for (const auto format : kCheckedFormats) {
      const Bytes wire = ser::encode(format, pdu);
      if (wire.empty()) continue;
      const std::size_t keep = rng.next_below(wire.size());
      auto result = ser::decode<s1ap::S1apPdu>(
          format, BytesView(wire.data(), keep));
      // Termination without a crash or OOB read is the contract (run
      // under ASan); a prefix that parses must not masquerade as the
      // whole original message.
      if (result.is_ok()) {
        EXPECT_NE(*result, pdu)
            << ser::to_string(format) << " iter " << i << " keep " << keep;
      }
    }
  }
}

TEST(CodecFuzz, BitFlippedRandomPdusNeverCrash) {
  Rng rng(0x5eed0004);
  const int iters = fuzz_iters(150);
  for (int i = 0; i < iters; ++i) {
    const auto pdu = random_pdu(rng);
    for (const auto format : kCheckedFormats) {
      Bytes wire = ser::encode(format, pdu);
      if (wire.empty()) continue;
      const std::size_t pos = rng.next_below(wire.size());
      wire[pos] ^= static_cast<Byte>(1u << rng.next_below(8));
      auto result = ser::decode<s1ap::S1apPdu>(format, wire);
      (void)result;  // any terminating outcome is fine; ASan judges memory
    }
  }
}

TEST(CodecFuzz, FlatBuffersEncodingIndependentOfHistory) {
  // The FlatBuffers builder is reused across a thread's encodes. Each
  // random message must encode to the same bytes right after a large
  // unrelated message in the other mode (the builder then holds its
  // vtables, alignment and mode), right after a tiny one, and on a new
  // thread whose builder has encoded nothing yet.
  const s1ap::S1apPdu large(s1ap::samples::initial_context_setup());
  const s1ap::S1apPdu tiny(s1ap::samples::ue_context_release_complete());
  constexpr ser::WireFormat kModes[] = {
      ser::WireFormat::kFlatBuffers, ser::WireFormat::kOptimizedFlatBuffers};
  Rng rng(0x5eed0006);
  const int iters = fuzz_iters(150);
  for (int i = 0; i < iters; ++i) {
    const auto pdu = random_pdu(rng);
    Bytes fresh[2];
    std::thread([&] {
      for (int m = 0; m < 2; ++m) fresh[m] = ser::encode(kModes[m], pdu);
    }).join();
    for (int m = 0; m < 2; ++m) {
      (void)ser::encode(kModes[1 - m], large);
      const Bytes after_large = ser::encode(kModes[m], pdu);
      (void)ser::encode(kModes[m], tiny);
      const Bytes after_tiny = ser::encode(kModes[m], pdu);
      ASSERT_EQ(after_large, fresh[m])
          << ser::to_string(kModes[m]) << " iter " << i;
      ASSERT_EQ(after_tiny, fresh[m])
          << ser::to_string(kModes[m]) << " iter " << i;
    }
  }
}

TEST(CodecFuzz, FillerReachesEveryUnionAlternative) {
  // Guard the generator itself: across the corpus every S1AP-PDU body
  // alternative must appear, otherwise the fuzzer silently lost coverage.
  Rng rng(0x5eed0005);
  std::vector<int> seen(s1ap::MessageBody::kAlternativeCount, 0);
  const int iters = fuzz_iters(150) * 4;
  for (int i = 0; i < iters; ++i) {
    const auto pdu = random_pdu(rng);
    ASSERT_TRUE(pdu.body.has_value());
    ++seen[pdu.body.index()];
  }
  for (std::size_t alt = 0; alt < seen.size(); ++alt) {
    EXPECT_GT(seen[alt], 0) << "alternative " << alt << " never generated";
  }
}

}  // namespace
}  // namespace neutrino
