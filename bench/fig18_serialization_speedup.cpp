// Fig. 18: encode+decode speedup over ASN.1 vs number of information
// elements, for FlexBuffers / protobuf / Fast-CDR / LCM / FlatBuffers.
//
// Paper (§6.7.4): Fast-CDR and LCM win below ~7 elements; beyond that
// FlatBuffers is the clear winner, with a total speedup of 1.6x..19.2x
// over ASN.1 (all real cellular messages have >= 8 elements).
//
// Real measurement over the from-scratch codecs; the custom message wraps
// each element in an S1AP ProtocolIE (see s1ap/custom_message.hpp).
#include "bench_util.hpp"
#include "codec_timing.hpp"
#include "s1ap/custom_message.hpp"

using namespace neutrino;

namespace {

/// ASN.1 first: every other format is reported as a speedup over it.
constexpr ser::WireFormat kFormats[] = {
    ser::WireFormat::kAsn1Per,      ser::WireFormat::kFastCdr,
    ser::WireFormat::kLcm,          ser::WireFormat::kProtobuf,
    ser::WireFormat::kFlexBuffers,  ser::WireFormat::kFlatBuffers,
    ser::WireFormat::kOptimizedFlatBuffers,
};

/// One element count's points, consecutive in kFormats order.
struct Row {
  std::size_t ies;
  std::size_t first_point;
};

template <std::size_t N>
Row add_row(bench::CodecRounds& rounds) {
  s1ap::CustomMessage<N> msg;
  msg.fill(42);
  const Row row{N, rounds.add(kFormats[0], msg)};
  for (std::size_t f = 1; f < std::size(kFormats); ++f) {
    rounds.add(kFormats[f], msg);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report(
      argc, argv, "fig18", "en/decoding speedup over ASN.1 vs element count",
      "CDR/LCM best <7 elements, FBs wins beyond, 1.6-19.2x");
  bench::CodecRounds rounds;
  const std::vector<Row> rows = {
      add_row<1>(rounds),  add_row<3>(rounds),  add_row<5>(rounds),
      add_row<7>(rounds),  add_row<9>(rounds),  add_row<12>(rounds),
      add_row<16>(rounds), add_row<20>(rounds), add_row<25>(rounds),
      add_row<30>(rounds), add_row<35>(rounds),
  };
  const auto budget = bench::codec_budget(
      report.smoke(), rows.size() * std::size(kFormats));
  report.config()["batch_ops"] = bench::kBatchOps;
  report.config()["budget_ms"] = static_cast<std::int64_t>(budget.count());
  rounds.run(budget);
  for (const Row& r : rows) {
    const double asn1 = rounds.ns(r.first_point);
    std::printf("fig18\t%2zu", r.ies);
    std::printf("\tasn1_ns=%.0f", asn1);
    obs::Json& json_row = report.new_row("codecs");
    json_row["x"] = static_cast<std::uint64_t>(r.ies);
    json_row["asn1_ns"] = asn1;
    json_row["speedup_over_asn1"].make_object();
    for (std::size_t f = 1; f < std::size(kFormats); ++f) {
      const double t = rounds.ns(r.first_point + f);
      const std::string name(ser::to_string(kFormats[f]));
      std::printf("\t%s=%.2fx", name.c_str(), asn1 / t);
      json_row["speedup_over_asn1"][name] = asn1 / t;
    }
    std::printf("\n");
  }
  std::printf("# checksum=%llu\n",
              static_cast<unsigned long long>(bench::codec_sink));
  return 0;
}
