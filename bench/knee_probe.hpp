// The saturation knee the two overload sweeps calibrate (fig_saturation,
// fig_scenarios; DESIGN.md §13, §17), and the overload-controlled
// protocol they sweep through it.
//
// A probe run far below saturation measures the busy time each completed
// procedure places on the CTA consumer pools and on the CPF request
// pools; the sustainable system rate is the smaller of regions / CTA
// demand and total CPFs / CPF demand. Busy seconds per completed
// procedure are load-independent (costs are per-message), so the probe
// rate only needs to be low enough that nothing queues pathologically.
#pragma once

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace neutrino::bench {

/// Summed busy time and deepest queue over every region's CTA consumer
/// pool and every CPF's request pool.
struct PoolLoad {
  double cta_busy_sec = 0;
  double cpf_busy_sec = 0;
  std::size_t peak_cta_depth = 0;
  std::size_t peak_cpf_depth = 0;
};

inline PoolLoad scan_pools(core::System& system,
                           const core::TopologyConfig& topo) {
  PoolLoad load;
  const auto regions = static_cast<std::uint32_t>(topo.total_regions());
  for (std::uint32_t r = 0; r < regions; ++r) {
    load.cta_busy_sec += system.cta(r).pool_busy_time().sec();
    load.peak_cta_depth =
        std::max(load.peak_cta_depth, system.cta(r).pool_peak_depth());
  }
  const auto cpfs = regions * static_cast<std::uint32_t>(topo.cpfs_per_region);
  for (std::uint32_t c = 0; c < cpfs; ++c) {
    load.cpf_busy_sec += system.cpf(CpfId{c}).request_busy_time().sec();
    load.peak_cpf_depth = std::max(load.peak_cpf_depth,
                                   system.cpf(CpfId{c}).request_peak_depth());
  }
  return load;
}

/// Bounded CTA and CPF queues, attach admission at half the bound, NAS
/// retransmission: the overload control both sweeps arm.
inline constexpr std::size_t kOverloadQueueCapacity = 32;

inline core::ProtocolConfig overload_controlled() {
  core::ProtocolConfig p;
  p.cta_queue_capacity = kOverloadQueueCapacity;
  p.cpf_queue_capacity = kOverloadQueueCapacity;
  p.attach_admission_fraction = 0.5;
  p.nas_retx_timeout = SimTime::milliseconds(20);
  p.nas_retx_budget = 6;
  return p;
}

/// What the probe measured per completed procedure, and the knee it implies.
struct Knee {
  std::uint64_t probe_completed = 0;
  double cta_sec_per_proc = 0;
  double cpf_sec_per_proc = 0;
  double pps = 0;
};

/// Run the probe trace (Neutrino, default protocol, `preattached` UEs)
/// and derive the knee. A probe that completed nothing prices nothing:
/// nullopt, with "<who> probe completed nothing" on stderr.
inline std::optional<Knee> probe_knee(
    const core::TopologyConfig& topo,
    const std::vector<traffic::TraceRecord>& probe,
    std::uint64_t preattached, const std::string& who) {
  ExperimentConfig cfg;
  cfg.policy = core::neutrino_policy();
  cfg.topo = topo;
  cfg.preattached_ues = preattached;
  PoolLoad load;
  const ExperimentResult result = run_experiment(
      cfg, probe, [](core::ShardedSystem&) {},
      [&](core::ShardedSystem& sys) { load = scan_pools(sys.system(0), topo); });
  Knee knee;
  knee.probe_completed = result.metrics.procedures_completed.value();
  if (knee.probe_completed == 0) {
    std::fprintf(stderr, "%s probe completed nothing\n", who.c_str());
    return std::nullopt;
  }
  const auto completed = static_cast<double>(knee.probe_completed);
  knee.cta_sec_per_proc = load.cta_busy_sec / completed;
  knee.cpf_sec_per_proc = load.cpf_busy_sec / completed;
  const auto regions = static_cast<std::uint32_t>(topo.total_regions());
  knee.pps = std::min(
      static_cast<double>(regions) / knee.cta_sec_per_proc,
      static_cast<double>(regions * topo.cpfs_per_region) /
          knee.cpf_sec_per_proc);
  return knee;
}

}  // namespace neutrino::bench
