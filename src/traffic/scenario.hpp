// Named scenario library over the traffic engine (DESIGN.md §17).
//
// Every bench accepts --scenario=NAME and resolves it here, so one string
// selects the same generative workload across scale_throughput,
// fig_saturation, fig_scenarios and chaos_campaign. Scenarios map the
// paper's §6.1 workloads and arXiv 2212.13248's measured structure onto
// EngineConfig presets:
//
//   legacy-uniform            the paper's uniform Poisson mix (via
//                             uniform(); compatibility baseline)
//   legacy-bursty             the paper's synchronized attach burst (via
//                             wave(); compatibility baseline)
//   commuter-morning          smartphones through a rising AM ramp;
//                             service-request-heavy chain with mobility
//   stadium-egress            flat load, then a 3x mobility/TAU spike as
//                             the crowd leaves
//   iot-firmware-push         80% duty-cycled IoT reporting in
//                             synchronized wakeup slots + a mid-run push
//                             wave, 20% smartphones
//   region-blackout-reconnect power cut (zero arrivals), then the whole
//                             population re-registers in a decaying wave
//   commuter-crossing         commute wave of moving UEs whose boundary
//                             crossings emit inter-region handovers
//                             (mobility engine, DESIGN.md §18)
//   edge-pingpong             UEs oscillating across cell edges under
//                             handover hysteresis (ping-pong pairs)
//
// Any of the six stationary scenarios also takes a mobility overlay
// (ScenarioRequest::mobility_overlay): a 20%-moving slice of the
// population rides on top of the base arrival stream.
//
// An unknown name is a hard error: benches print unknown_scenario_error()
// (which lists every valid name) and exit non-zero, rather than silently
// running the default workload.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "traffic/engine.hpp"
#include "traffic/mobility.hpp"

namespace neutrino::traffic {

/// The knobs a bench supplies; everything else is the scenario's identity.
struct ScenarioRequest {
  double target_pps = 1000.0;
  SimTime duration = SimTime::seconds(10);
  std::uint64_t population = 10'000;
  int regions = 1;
  bool allow_inter_region = false;
  std::uint64_t seed = 1;
  /// Shard count the replay will run under: mobility trajectories are
  /// confined to their home shard's region block so every emitted
  /// handover target stays shard-legal (DESIGN.md §18).
  std::uint32_t shard_blocks = 1;
  /// Ride a mobility stream (20% of the population moving, 10% of those
  /// edge oscillators) on top of any named scenario. Requires a 4^k-region
  /// grid (k >= 1); other topologies keep the base scenario unchanged.
  bool mobility_overlay = false;
};

struct ScenarioInfo {
  std::string_view name;
  std::string_view summary;
  /// Whether benches should preattach the UE population before replay
  /// (false for scenarios whose story begins with registration).
  bool preattach = true;
};

inline const std::vector<ScenarioInfo>& scenarios() {
  static const std::vector<ScenarioInfo> kScenarios = {
      {"legacy-uniform",
       "uniform Poisson mix (paper §6.1 compatibility baseline)", true},
      {"legacy-bursty",
       "synchronized attach burst (paper §6.1 compatibility baseline)",
       false},
      {"commuter-morning",
       "smartphone population through a rising commute ramp", true},
      {"stadium-egress", "flat load, then a 3x mobility spike", true},
      {"iot-firmware-push",
       "duty-cycled IoT wakeup slots + a firmware-push wave", true},
      {"region-blackout-reconnect",
       "power cut, then a synchronized re-registration wave", false},
      {"commuter-crossing",
       "commute wave of moving UEs crossing region boundaries "
       "(inter-region FastHandover; needs a 4^k-region grid)",
       true},
      {"edge-pingpong",
       "UEs oscillating across cell edges: ping-pong handovers under "
       "hysteresis (needs a 4^k-region grid)",
       true},
  };
  return kScenarios;
}

inline const ScenarioInfo* find_scenario(std::string_view name) {
  for (const ScenarioInfo& s : scenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

inline std::string scenario_names_csv() {
  std::string out;
  for (const ScenarioInfo& s : scenarios()) {
    if (!out.empty()) out += ", ";
    out += s.name;
  }
  return out;
}

/// The hard-error message for an unrecognized --scenario= value.
inline std::string unknown_scenario_error(std::string_view name) {
  return "unknown scenario '" + std::string{name} +
         "'; valid scenarios: " + scenario_names_csv();
}

namespace detail {

inline MarkovChain smartphone_chain() {
  // attach, service, handover, intra, tau — rows normalized by next().
  MarkovChain c;
  c.set_row(ProcState::kAttach, 0.02, 0.68, 0.05, 0.15, 0.10);
  c.set_row(ProcState::kServiceRequest, 0.03, 0.52, 0.08, 0.22, 0.15);
  c.set_row(ProcState::kHandover, 0.02, 0.58, 0.10, 0.20, 0.10);
  c.set_row(ProcState::kIntraHandover, 0.02, 0.56, 0.08, 0.24, 0.10);
  c.set_row(ProcState::kTau, 0.03, 0.62, 0.05, 0.15, 0.15);
  return c;
}

inline MarkovChain mobility_heavy_chain() {
  MarkovChain c;
  c.set_row(ProcState::kAttach, 0.02, 0.38, 0.10, 0.35, 0.15);
  c.set_row(ProcState::kServiceRequest, 0.02, 0.28, 0.12, 0.38, 0.20);
  c.set_row(ProcState::kHandover, 0.02, 0.26, 0.14, 0.40, 0.18);
  c.set_row(ProcState::kIntraHandover, 0.02, 0.26, 0.12, 0.42, 0.18);
  c.set_row(ProcState::kTau, 0.02, 0.30, 0.10, 0.36, 0.22);
  return c;
}

inline MarkovChain iot_chain() {
  // Wake, (re-)register if needed, push the report, update location.
  MarkovChain c;
  c.set_row(ProcState::kAttach, 0.10, 0.78, 0.00, 0.02, 0.10);
  c.set_row(ProcState::kServiceRequest, 0.14, 0.70, 0.00, 0.02, 0.14);
  c.set_row(ProcState::kHandover, 0.10, 0.78, 0.00, 0.02, 0.10);
  c.set_row(ProcState::kIntraHandover, 0.10, 0.78, 0.00, 0.02, 0.10);
  c.set_row(ProcState::kTau, 0.12, 0.74, 0.00, 0.02, 0.12);
  return c;
}

inline MarkovChain reconnect_chain() {
  // Post-blackout: register, then resume normal smartphone behaviour
  // with an elevated re-attach fraction (flapping power/coverage).
  MarkovChain c;
  c.set_row(ProcState::kAttach, 0.12, 0.60, 0.03, 0.12, 0.13);
  c.set_row(ProcState::kServiceRequest, 0.08, 0.54, 0.05, 0.18, 0.15);
  c.set_row(ProcState::kHandover, 0.08, 0.56, 0.05, 0.16, 0.15);
  c.set_row(ProcState::kIntraHandover, 0.08, 0.56, 0.05, 0.16, 0.15);
  c.set_row(ProcState::kTau, 0.10, 0.58, 0.04, 0.14, 0.14);
  return c;
}

inline GeneratedTraffic legacy_uniform(const ScenarioRequest& req) {
  // Attach gets the remaining 0.4.
  const ProcedureMix mix{.service_request = 0.5, .intra_handover = 0.1};
  GeneratedTraffic out;
  out.records = uniform(req.target_pps, req.duration, mix, req.population,
                        req.regions, req.seed);
  sort_records(out.records);
  out.per_class.push_back({"uniform", 0, req.population, out.records.size()});
  return out;
}

inline GeneratedTraffic legacy_bursty(const ScenarioRequest& req) {
  const auto wanted = static_cast<std::uint64_t>(
      req.target_pps * req.duration.sec() + 0.5);
  const std::uint64_t n_users =
      std::max<std::uint64_t>(1, std::min(req.population, wanted));
  GeneratedTraffic out;
  out.records = wave(n_users, core::ProcedureType::kAttach, SimTime{},
                     req.duration, req.seed);
  out.per_class.push_back({"bursty-attach", 0, n_users, out.records.size()});
  return out;
}

inline EngineConfig base_engine(const ScenarioRequest& req) {
  EngineConfig cfg;
  cfg.target_pps = req.target_pps;
  cfg.duration = req.duration;
  cfg.population = req.population;
  cfg.regions = req.regions;
  cfg.allow_inter_region = req.allow_inter_region;
  cfg.seed = req.seed;
  cfg.classes.clear();
  return cfg;
}

inline GeneratedTraffic commuter_morning(const ScenarioRequest& req) {
  EngineConfig cfg = base_engine(req);
  cfg.envelope.points = {{0.0, 0.3}, {0.7, 1.7}, {1.0, 1.5}};
  DeviceClassConfig phones;
  phones.name = "smartphone";
  phones.think.sigma = 1.2;
  phones.chain = smartphone_chain();
  phones.initial = ProcState::kServiceRequest;  // population preattached
  cfg.classes.push_back(std::move(phones));
  return generate(cfg);
}

inline GeneratedTraffic stadium_egress(const ScenarioRequest& req) {
  EngineConfig cfg = base_engine(req);
  cfg.envelope.points = {
      {0.0, 0.5}, {0.55, 0.5}, {0.62, 3.0}, {0.78, 1.2}, {1.0, 0.5}};
  DeviceClassConfig crowd;
  crowd.name = "smartphone";
  crowd.think.sigma = 1.0;
  crowd.chain = mobility_heavy_chain();
  crowd.initial = ProcState::kServiceRequest;
  cfg.classes.push_back(std::move(crowd));
  return generate(cfg);
}

inline GeneratedTraffic iot_firmware_push(const ScenarioRequest& req) {
  EngineConfig cfg = base_engine(req);
  cfg.envelope.points = {
      {0.0, 0.8}, {0.45, 0.8}, {0.5, 2.6}, {0.65, 0.9}, {1.0, 0.8}};
  DeviceClassConfig phones;
  phones.name = "smartphone";
  phones.population_share = 0.2;
  phones.rate_share = 0.35;
  phones.think.sigma = 1.2;
  phones.chain = smartphone_chain();
  phones.initial = ProcState::kServiceRequest;
  cfg.classes.push_back(std::move(phones));
  DeviceClassConfig iot;
  iot.name = "massive-iot";
  iot.population_share = 0.8;
  iot.rate_share = 0.65;
  iot.think.sigma = 0.6;          // metronomic reporters...
  iot.think.tail_weight = 0.02;   // ...with rare long sleeps
  iot.chain = iot_chain();
  iot.initial = ProcState::kServiceRequest;
  // Eight synchronized wakeup slots over the run: every IoT arrival
  // snaps to the class-wide grid, so the spikes are visible in any
  // windowed arrival series wider than one slot.
  iot.duty_period = SimTime::nanoseconds(req.duration.ns() / 8);
  iot.duty_phase = SimTime::nanoseconds(req.duration.ns() / 16);
  cfg.classes.push_back(std::move(iot));
  return generate(cfg);
}

inline GeneratedTraffic region_blackout_reconnect(const ScenarioRequest& req) {
  EngineConfig cfg = base_engine(req);
  // Zero arrivals for the first 35% (the outage), then the backlog of
  // device activity re-emerges over a short ramp and decays to normal.
  cfg.envelope.points = {
      {0.0, 0.0}, {0.35, 0.0}, {0.40, 4.0}, {0.60, 1.3}, {1.0, 0.8}};
  DeviceClassConfig devices;
  devices.name = "reconnecting";
  devices.think.sigma = 1.0;
  devices.chain = reconnect_chain();
  devices.initial = ProcState::kAttach;  // cold population: register first
  cfg.classes.push_back(std::move(devices));
  return generate(cfg);
}

/// Mobility preset shared by the mobility scenarios and the overlay. The
/// grid only engages when the request's region count is an exact 4^k
/// (k >= 1) — a trajectory's home cell must be the preattach home
/// (ue % regions), so a partial grid would desynchronize the two.
inline MobilityConfig scenario_mobility(const ScenarioRequest& req) {
  MobilityConfig m;
  m.seed = req.seed;
  m.regions = req.regions > 0 ? static_cast<std::uint32_t>(req.regions) : 0;
  m.shard_blocks = req.shard_blocks;
  m.population = req.population;
  m.duration = req.duration;
  return m;
}

/// Generate the mobility stream for `m`, record its accounting, and merge
/// it into `base` under the (at, ue, type) total order.
inline GeneratedTraffic merge_mobility(GeneratedTraffic base,
                                       const MobilityConfig& m,
                                       MobilityStats* stats) {
  MobilityTraffic mob = generate_mobility(m);
  if (stats) *stats = mob.stats;
  if (mob.records.empty()) return base;
  ClassArrivals acct;
  acct.name = "mobility";
  acct.ue_base = 0;
  acct.ue_count = mob.stats.moving_ues;
  acct.count = mob.records.size();
  base.per_class.push_back(std::move(acct));
  std::vector<std::vector<TraceRecord>> streams;
  streams.push_back(std::move(base.records));
  streams.push_back(std::move(mob.records));
  base.records = merge_sorted_records(std::move(streams));
  return base;
}

inline GeneratedTraffic commuter_crossing(const ScenarioRequest& req,
                                          MobilityStats* stats) {
  // Background: smartphone chatter through the same AM ramp the commute
  // wave rides. Inter-region handovers come from *movement* only, so the
  // engine keeps its dice away from kHandover.
  EngineConfig cfg = base_engine(req);
  cfg.allow_inter_region = false;
  cfg.envelope.points = {{0.0, 0.6}, {0.25, 1.6}, {0.6, 1.1}, {1.0, 0.9}};
  DeviceClassConfig phones;
  phones.name = "smartphone";
  phones.think.sigma = 1.2;
  phones.chain = smartphone_chain();
  phones.initial = ProcState::kServiceRequest;
  cfg.classes.push_back(std::move(phones));
  GeneratedTraffic out = generate(cfg);

  MobilityConfig m = scenario_mobility(req);
  m.oscillator_fraction = 0.0;  // pure commute flows
  m.wave_center_frac = 0.25;
  m.wave_sigma_frac = 0.10;
  return merge_mobility(std::move(out), m, stats);
}

inline GeneratedTraffic edge_pingpong(const ScenarioRequest& req,
                                      MobilityStats* stats) {
  // Light flat background; the story is the oscillator population working
  // the hysteresis band at cell edges.
  EngineConfig cfg = base_engine(req);
  cfg.allow_inter_region = false;
  DeviceClassConfig phones;
  phones.name = "smartphone";
  phones.think.sigma = 1.0;
  phones.chain = smartphone_chain();
  phones.initial = ProcState::kServiceRequest;
  cfg.classes.push_back(std::move(phones));
  GeneratedTraffic out = generate(cfg);

  MobilityConfig m = scenario_mobility(req);
  m.oscillator_fraction = 1.0;
  return merge_mobility(std::move(out), m, stats);
}

}  // namespace detail

/// Generate a named scenario; std::nullopt for an unknown name (callers
/// should then report unknown_scenario_error(name) and fail hard). When
/// `mobility` is non-null it receives the mobility-stream accounting
/// (zeroed when the scenario has no mobility component).
inline std::optional<GeneratedTraffic> generate_scenario(
    std::string_view name, const ScenarioRequest& req,
    MobilityStats* mobility = nullptr) {
  if (mobility) *mobility = MobilityStats{};
  if (name == "commuter-crossing") {
    return detail::commuter_crossing(req, mobility);
  }
  if (name == "edge-pingpong") return detail::edge_pingpong(req, mobility);

  std::optional<GeneratedTraffic> out;
  if (name == "legacy-uniform") {
    out = detail::legacy_uniform(req);
  } else if (name == "legacy-bursty") {
    out = detail::legacy_bursty(req);
  } else if (name == "commuter-morning") {
    out = detail::commuter_morning(req);
  } else if (name == "stadium-egress") {
    out = detail::stadium_egress(req);
  } else if (name == "iot-firmware-push") {
    out = detail::iot_firmware_push(req);
  } else if (name == "region-blackout-reconnect") {
    out = detail::region_blackout_reconnect(req);
  } else {
    return std::nullopt;
  }
  if (req.mobility_overlay) {
    MobilityConfig m = detail::scenario_mobility(req);
    m.moving_fraction = 0.2;
    m.oscillator_fraction = 0.1;
    *out = detail::merge_mobility(std::move(*out), m, mobility);
  }
  return out;
}

}  // namespace neutrino::traffic
