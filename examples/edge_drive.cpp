// Edge drive: a self-driving car crosses region boundaries while 100K
// users load the control plane (the paper's §6.6 scenario, Fig. 12).
//
// Prints the car's data-path outages per handover and the resulting
// missed 100 ms deadlines, for the existing EPC and Neutrino.
#include <cstdio>

#include "apps/deadline_app.hpp"
#include "core/cost_model.hpp"
#include "core/system.hpp"
#include "geo/region_plan.hpp"
#include "traffic/engine.hpp"

using namespace neutrino;

namespace {

/// The metro deployment: one level-2 geohash cell split into its four
/// level-1 regions (Fig. 6), each hosting a CTA and a CPF pool.
core::TopologyConfig plan_metro() {
  const geo::GeoCell metro =
      geo::geohash_decode(geo::geohash_encode({31.52, 74.35}, 5));  // Lahore
  const auto plan = geo::RegionPlan::from_area(metro, 6);
  std::printf("deployment plan (level-2 cell %s):\n",
              std::string(geo::parent_region(plan.regions()[0].geohash))
                  .c_str());
  for (const auto& region : plan.regions()) {
    std::printf("  region %u: geohash %s, center (%.3f, %.3f)\n",
                region.region_index, region.geohash.c_str(),
                region.cell.center().lat, region.cell.center().lon);
  }
  auto topo = plan.to_topology(/*cpfs_per_region=*/5);
  std::printf("\n");
  return topo.is_ok() ? *topo : core::TopologyConfig{};
}

void run(const core::CorePolicy& policy, const core::MeasuredCostModel& costs,
         const core::TopologyConfig& planned) {
  core::TopologyConfig topo = planned;
  sim::EventLoop loop;
  core::Metrics metrics;
  core::System system(loop, policy, topo, {}, costs, metrics);

  // Background signaling load: 100K users issuing service requests.
  constexpr std::uint64_t kUsers = 100'000;
  for (std::uint64_t ue = 0; ue <= kUsers; ++ue) {
    system.frontend().preattach(
        UeId(ue),
        static_cast<std::uint32_t>(ue % static_cast<std::uint64_t>(
                                            topo.total_regions())));
  }
  std::vector<core::System::Arrival> background;
  for (const auto& rec : traffic::uniform(
           kUsers, SimTime::milliseconds(1500), {.service_request = 1.0},
           kUsers, topo.total_regions(), /*seed=*/42)) {
    background.push_back(core::System::Arrival::of(rec));
  }
  system.replay(std::move(background));

  // The car: five region-crossing handovers, one every 200 ms
  // (time-compressed from the Fig. 12 drive).
  const UeId car{kUsers};
  system.frontend().watch_outages(car);
  for (int hop = 1; hop <= 5; ++hop) {
    const auto at = SimTime::milliseconds(200) * hop;
    loop.schedule_at(at, [&system, car, hop, &topo] {
      system.frontend().start_procedure(
          car, core::ProcedureType::kHandover,
          static_cast<std::uint32_t>(hop % topo.total_regions()));
    });
  }
  loop.run_until(SimTime::seconds(30));

  apps::DeadlineApp sensor_stream;  // 1 kHz, 100 ms budget
  const auto& outages = system.frontend().outages(car);
  std::printf("%s:\n", std::string(policy.name).c_str());
  for (std::size_t i = 0; i < outages.size(); ++i) {
    std::printf("  handover %zu: data path down %.3f ms\n", i + 1,
                (outages[i].end - outages[i].start).ms());
  }
  std::printf("  missed deadlines: %llu\n\n",
              static_cast<unsigned long long>(
                  sensor_stream.missed_deadlines(outages)));
}

}  // namespace

int main() {
  std::printf("A car driving across edge regions under 100K-user load:\n\n");
  const core::TopologyConfig planned = plan_metro();
  const core::MeasuredCostModel costs;
  run(core::existing_epc_policy(), costs, planned);
  run(core::neutrino_policy(), costs, planned);
  return 0;
}
