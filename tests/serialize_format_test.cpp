// Wire-format-level properties: FlatBuffers buffer mechanics (vtable
// sharing, alignment, svtable layout), the asn1c-style runtime descriptors,
// and the top-level PDU envelope.
#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "s1ap/samples.hpp"
#include "serialize/asn1_interp.hpp"
#include "serialize/codec.hpp"

namespace neutrino {
namespace {

// ---- FlatBuffers buffer mechanics -----------------------------------------

TEST(FlatBufFormat, RootOffsetPointsToTable) {
  const auto buf =
      ser::encode(ser::WireFormat::kFlatBuffers, s1ap::samples::tai());
  ASSERT_GE(buf.size(), 8u);
  std::uint32_t root;
  std::memcpy(&root, buf.data(), 4);
  ASSERT_LT(root, buf.size());
  // The table begins with an soffset to a vtable whose first u16 is the
  // vtable's own size (>= 4, even).
  std::int32_t soffset;
  std::memcpy(&soffset, buf.data() + root, 4);
  const auto vt_pos = static_cast<std::int64_t>(root) - soffset;
  ASSERT_GE(vt_pos, 0);
  ASSERT_LT(vt_pos, static_cast<std::int64_t>(buf.size()));
  std::uint16_t vt_size;
  std::memcpy(&vt_size, buf.data() + vt_pos, 2);
  EXPECT_GE(vt_size, 4u);
  EXPECT_EQ(vt_size % 2, 0u);
}

TEST(FlatBufFormat, ScalarFieldsAreNaturallyAligned) {
  // Walk the root table of a message with u64 fields and check alignment.
  const auto msg = s1ap::samples::initial_context_setup();
  const auto buf = ser::encode(ser::WireFormat::kFlatBuffers, msg);
  auto root = ser::FlatTableRef::root(BytesView(buf));
  ASSERT_TRUE(root.is_ok());
  // Slot 2/3 belong to the nested AMBR table (u64s); find the AMBR table.
  const std::uint32_t ambr_field = root->field_pos(2);
  ASSERT_NE(ambr_field, 0u);
  const std::uint32_t ambr_pos = root->indirect(ambr_field);
  auto ambr = root->table_at(ambr_pos);
  const std::uint32_t dl_pos = ambr.field_pos(0);
  ASSERT_NE(dl_pos, 0u);
  EXPECT_EQ(dl_pos % 8, 0u) << "u64 field must be 8-byte aligned";
  EXPECT_EQ(ser::FlatTableRef::read_scalar<std::uint64_t>(BytesView(buf),
                                                          dl_pos),
            msg.ambr.dl_bps);
}

TEST(FlatBufFormat, IdenticalTablesShareOneVtable) {
  // Three identical-shape E-RAB items: their tables must reference the
  // same vtable position (dedup), so size grows by data only.
  s1ap::ErabSetupResponse two;
  two.mme_ue_s1ap_id = 1;
  two.enb_ue_s1ap_id = 2;
  two.erabs_setup = {{.erab_id = 1, .transport = s1ap::samples::tunnel(1)},
                     {.erab_id = 2, .transport = s1ap::samples::tunnel(2)}};
  const auto buf = ser::encode(ser::WireFormat::kFlatBuffers, two);
  auto root = ser::FlatTableRef::root(BytesView(buf));
  ASSERT_TRUE(root.is_ok());
  const std::uint32_t vec_field = root->field_pos(2);
  ASSERT_NE(vec_field, 0u);
  const std::uint32_t vec_pos = root->indirect(vec_field);
  const auto count =
      ser::FlatTableRef::read_scalar<std::uint32_t>(BytesView(buf), vec_pos);
  ASSERT_EQ(count, 2u);
  std::int64_t vtables[2];
  for (std::uint32_t i = 0; i < 2; ++i) {
    const std::uint32_t slot = vec_pos + 4 + i * 4;
    const std::uint32_t table_pos = root->indirect(slot);
    std::int32_t soffset;
    std::memcpy(&soffset, buf.data() + table_pos, 4);
    vtables[i] = static_cast<std::int64_t>(table_pos) - soffset;
  }
  EXPECT_EQ(vtables[0], vtables[1]);
}

TEST(FlatBufFormat, AbsentOptionalHasZeroSlot) {
  s1ap::InitialUeMessage msg = s1ap::samples::initial_ue_message();
  msg.s_tmsi.reset();
  const auto buf = ser::encode(ser::WireFormat::kFlatBuffers, msg);
  auto root = ser::FlatTableRef::root(BytesView(buf));
  ASSERT_TRUE(root.is_ok());
  EXPECT_EQ(root->field_pos(5), 0u);  // s_tmsi slot
  EXPECT_NE(root->field_pos(1), 0u);  // nas_pdu present
}

TEST(FlatBufFormat, SvtableSavingsAreExactlyVtablePlusSoffset) {
  // Single-scalar union member: the wrapper table costs a 6-byte vtable +
  // 4-byte soffset (+ padding); svtable removes all of it.
  s1ap::GtpTunnel tunnel = s1ap::samples::tunnel(1);
  const auto standard = ser::encode(ser::WireFormat::kFlatBuffers, tunnel);
  const auto optimized =
      ser::encode(ser::WireFormat::kOptimizedFlatBuffers, tunnel);
  EXPECT_GE(standard.size() - optimized.size(), 10u);
  // Both decode to the same message.
  auto a = ser::decode<s1ap::GtpTunnel>(ser::WireFormat::kFlatBuffers,
                                        standard);
  auto b = ser::decode<s1ap::GtpTunnel>(
      ser::WireFormat::kOptimizedFlatBuffers, optimized);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(*a, *b);
}

TEST(FlatBufFormat, AccessorChecksumStableAcrossModes) {
  const auto msg = s1ap::samples::initial_context_setup();
  const auto std_buf = ser::encode(ser::WireFormat::kFlatBuffers, msg);
  const auto opt_buf =
      ser::encode(ser::WireFormat::kOptimizedFlatBuffers, msg);
  const auto a = ser::FlatBufAccessor::access_all<
      s1ap::InitialContextSetupRequest>(std_buf, ser::FlatBufMode::kStandard);
  const auto b = ser::FlatBufAccessor::access_all<
      s1ap::InitialContextSetupRequest>(opt_buf, ser::FlatBufMode::kOptimized);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  // Same logical content: the checksum over all fields must agree.
  EXPECT_EQ(*a, *b);
}

// ---- asn1c-style runtime descriptors ---------------------------------------

TEST(Asn1Interp, DescriptorMirrorsSchema) {
  const auto& type = ser::asn1i::rt_type<s1ap::InitialUeMessage>();
  ASSERT_EQ(type.fields.size(), 6u);
  EXPECT_EQ(type.fields[0].kind, ser::asn1i::Kind::kInt);
  EXPECT_EQ(type.fields[1].kind, ser::asn1i::Kind::kBytes);
  EXPECT_EQ(type.fields[2].kind, ser::asn1i::Kind::kStruct);
  ASSERT_NE(type.fields[2].nested, nullptr);
  EXPECT_EQ(type.fields[2].nested->name, "TAI");
  EXPECT_EQ(type.fields[5].kind, ser::asn1i::Kind::kOptional);
  ASSERT_NE(type.fields[5].element, nullptr);
  EXPECT_EQ(type.fields[5].element->kind, ser::asn1i::Kind::kStruct);
}

TEST(Asn1Interp, DescriptorIsBuiltOnce) {
  const auto& a = ser::asn1i::rt_type<s1ap::Tai>();
  const auto& b = ser::asn1i::rt_type<s1ap::Tai>();
  EXPECT_EQ(&a, &b);
}

TEST(Asn1Interp, ChoiceDescriptorsEnumerateAlternatives) {
  const auto& type = ser::asn1i::rt_type<s1ap::GtpTunnel>();
  ASSERT_EQ(type.fields.size(), 2u);
  EXPECT_EQ(type.fields[0].kind, ser::asn1i::Kind::kChoice);
  EXPECT_EQ(type.fields[0].alternatives.size(), 2u);
  EXPECT_EQ(type.fields[0].alternatives[0].kind, ser::asn1i::Kind::kInt);
  EXPECT_EQ(type.fields[0].alternatives[1].kind, ser::asn1i::Kind::kBytes);
}

// ---- PDU envelope -----------------------------------------------------------

TEST(S1apPdu, NamesAndDispatch) {
  s1ap::S1apPdu pdu(s1ap::samples::service_request());
  EXPECT_EQ(s1ap::message_name(pdu), "ServiceRequest");
  EXPECT_TRUE(pdu.is<s1ap::ServiceRequest>());
  EXPECT_FALSE(pdu.is<s1ap::AttachRequest>());
  EXPECT_EQ(pdu.get<s1ap::ServiceRequest>().s_tmsi.m_tmsi, 0xdeadbeefu);
}

TEST(S1apPdu, EmptyEnvelopeNamed) {
  s1ap::S1apPdu pdu;
  EXPECT_EQ(s1ap::message_name(pdu), "empty");
}

/// A table one slot wider than the builder's vtable scratch holds.
struct Wide73 {
  static constexpr std::string_view kTypeName = "Wide73";
  std::array<std::uint8_t, 73> f{};

  template <class V>
  void visit_fields(V&& v) {
    for (std::size_t i = 0; i < f.size(); ++i) {
      v(static_cast<int>(i), "f", f[i]);
    }
  }
};

TEST(FlatBufFormat, TableWiderThanScratchAbortsNamingItsType) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      (void)ser::FlatBufEncoder::encode(Wide73{}, ser::FlatBufMode::kStandard),
      "FlatBufEncoder: table Wide73 has 73 slots; the builder holds at most "
      "72");
}

}  // namespace
}  // namespace neutrino
