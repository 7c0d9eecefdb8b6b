// Fig. 19: encode+decode times for real S1AP messages — Optimized
// FlatBuffers vs FlatBuffers vs ASN.1.
//
// Paper (§6.7.4): up to 5.9x decrease in encode+decode time with
// FlatBuffers over ASN.1, with a further decrease from the svtable
// optimization in some cases.
#include "bench_util.hpp"
#include "codec_timing.hpp"
#include "s1ap/samples.hpp"

using namespace neutrino;

int main(int argc, char** argv) {
  bench::Report report(argc, argv, "fig19",
                       "encode+decode times, real S1 protocol messages",
                       "FBs up to 5.9x faster than ASN.1; OptFBs best");
  const std::vector<s1ap::samples::NamedPdu> messages =
      s1ap::samples::figure19_messages();
  bench::CodecRounds rounds;
  for (const auto& named : messages) {
    rounds.add(ser::WireFormat::kAsn1Per, named.pdu);
    rounds.add(ser::WireFormat::kFlatBuffers, named.pdu);
    rounds.add(ser::WireFormat::kOptimizedFlatBuffers, named.pdu);
  }
  const auto budget = bench::codec_budget(report.smoke(), 3 * messages.size());
  report.config()["batch_ops"] = bench::kBatchOps;
  report.config()["budget_ms"] = static_cast<std::int64_t>(budget.count());
  rounds.run(budget);
  for (std::size_t m = 0; m < messages.size(); ++m) {
    const double asn1 = rounds.ns(3 * m);
    const double fbs = rounds.ns(3 * m + 1);
    const double opt = rounds.ns(3 * m + 2);
    const std::string name(messages[m].name);
    std::printf(
        "fig19\t%-28s\tasn1_ns=%.0f\tfbs_ns=%.0f\toptfbs_ns=%.0f\t"
        "fbs_speedup=%.2fx\toptfbs_speedup=%.2fx\n",
        name.c_str(), asn1, fbs, opt, asn1 / fbs, asn1 / opt);
    obs::Json& row = report.new_row(name);
    row["asn1_ns"] = asn1;
    row["fbs_ns"] = fbs;
    row["optfbs_ns"] = opt;
    row["fbs_speedup"] = asn1 / fbs;
    row["optfbs_speedup"] = asn1 / opt;
  }
  std::printf("# checksum=%llu\n",
              static_cast<unsigned long long>(bench::codec_sink));
  return 0;
}
