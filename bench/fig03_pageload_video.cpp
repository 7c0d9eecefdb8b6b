// Fig. 3: page load time and video startup delay vs serialization scheme.
//
// Paper (§3.2, §6.6): a stationary idle UE starting a web-browsing or
// video-streaming app must first run a service request; startup latency is
// a function of the service-request PCT. Switching ASN.1 for the faster
// serialization improves video startup by up to 37x and PLT by up to 3.2x
// across 180K..300K active users per second.
//
// The two curves differ ONLY in wire format (both run the plain EPC
// pipeline): the figure isolates the serialization effect.
#include "apps/deadline_app.hpp"
#include "bench_util.hpp"

using namespace neutrino;

int main(int argc, char** argv) {
  bench::Report report(argc, argv, "fig03",
                       "page load time / video startup delay",
                       "faster serialization: up to 3.2x PLT, 37x video");
  auto asn1 = core::existing_epc_policy();
  asn1.name = "ASN.1";
  auto fast = core::existing_epc_policy();
  fast.name = "FasterSerialization";
  fast.wire_format = ser::WireFormat::kOptimizedFlatBuffers;

  const apps::StartupModel startup;
  const std::vector<double> rates =
      report.smoke() ? std::vector<double>{180e3}
                     : std::vector<double>{180e3, 200e3, 220e3, 240e3,
                                           260e3, 280e3, 300e3};
  const SimTime duration = SimTime::milliseconds(report.smoke() ? 100 : 800);
  report.config()["rates_pps"].make_array();
  for (const double r : rates) report.config()["rates_pps"].push_back(r);
  report.config()["duration_ms"] = duration.ms();
  for (const auto& policy : {asn1, fast}) {
    for (const double rate : rates) {
      bench::ExperimentConfig cfg;
      cfg.policy = policy;
      const auto population = static_cast<std::uint64_t>(rate * 1.2);
      cfg.preattached_ues = population;
      const auto t = traffic::uniform(rate, duration,
                                      {.service_request = 1.0}, population,
                                      cfg.topo.total_regions(), /*seed=*/42);
      const auto result = bench::run_experiment(cfg, t);
      const auto& pct = result.metrics.pct[static_cast<std::size_t>(
          core::ProcedureType::kServiceRequest)];
      if (pct.empty()) continue;
      const double video_s = startup.video_startup_ms(pct.median()) / 1e3;
      const double page_s = startup.page_load_ms(pct.median()) / 1e3;
      std::printf(
          "fig03\t%s\t%.0f\tsr_pct_ms=%.3f\tvideo_startup_s=%.3f\t"
          "page_load_s=%.3f\n",
          std::string(policy.name).c_str(), rate, pct.median(), video_s,
          page_s);
      obs::Json& row = report.new_row(policy.name);
      row["x"] = rate;
      row["sr_pct_ms"] = obs::summary_json(pct);
      row["video_startup_s"] = video_s;
      row["page_load_s"] = page_s;
      bench::Report::attach_result(row, result);
    }
  }
  return 0;
}
