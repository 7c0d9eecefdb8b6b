#include "core/sharded_system.hpp"

#include <bit>
#include <cassert>

namespace neutrino::core {
namespace {

/// The window length for `shards` shards over `topo`: min cross-shard
/// cpf_link − 1ns, or SimTime::max() for one shard.
SimTime lookahead_for(const TopologyConfig& topo, std::uint32_t shards) {
  if (shards <= 1) return SimTime::max();
  const auto regions = static_cast<std::uint32_t>(topo.total_regions());
  const std::uint32_t per_shard = (regions + shards - 1) / shards;
  SimTime min_link = SimTime::max();
  for (std::uint32_t a = 0; a < regions; ++a) {
    for (std::uint32_t b = a + 1; b < regions; ++b) {
      if (a / per_shard == b / per_shard) continue;  // same shard
      min_link = std::min(min_link, topo.cpf_link(a, b));
    }
  }
  // No cross-shard pair (shards ≥ regions never happens — System asserts
  // n_shards ≤ regions — but an all-links-local partition could): max()
  // keeps the single-window behavior.
  if (min_link == SimTime::max()) return min_link;
  // Strictly below the shortest cross link, so arrivals always land
  // *after* the window end (the runtime's post() invariant).
  assert(min_link.ns() > 1);
  return min_link - SimTime::nanoseconds(1);
}

}  // namespace

ShardedSystem::Runtime::Config ShardedSystem::runtime_config(
    const Config& config) {
  Runtime::Config rc;
  rc.shards = config.shards;
  rc.threads = config.threads;
  rc.lookahead = lookahead_for(config.topo, config.shards);
  // Sharding splits the event stream N ways, so each shard's wheel sees
  // ~1/N the event density of the legacy loop. Shrink the SLOT COUNT
  // with the shard count at unchanged tick width: at threads=1 one
  // thread rotates through all N wheels every window, so N× the legacy bucket
  // headers is pure cache churn (4096 slots × 24 B × 8 shards ≈ 768 KB
  // touched per rotation vs 96 KB scaled), while widening ticks instead
  // would dump every sub-tick delay — most local hops — onto the slower
  // heap path (CPU-time A/B on the 8-shard storm: tick-width scaling
  // ~+15%, no scaling ~+25%, slot scaling ~±3% vs the same-topology
  // legacy run). The shorter span (512 µs at 8 shards) pushes the few
  // long inter-L2 links to the far-future heap, which is cheaper than
  // thrashing bucket headers on every window. Wheel geometry never
  // affects event ordering — only where an event waits — so this is
  // invisible to determinism and to the 1-shard ≡ legacy equivalence.
  if (config.shards > 1) {
    const std::size_t scale = std::bit_ceil(static_cast<std::size_t>(
        config.shards > 16 ? 16 : config.shards));
    rc.loop.wheel_slots /= scale;
  }
  return rc;
}

ShardedSystem::ShardedSystem(const Config& config, const CostModel& costs)
    : topo_(config.topo), runtime_(runtime_config(config)) {
  const std::uint32_t n = config.shards == 0 ? 1 : config.shards;
  sinks_.resize(n);
  shards_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    sinks_[i].runtime = &runtime_;
    sinks_[i].src = i;
    auto metrics = std::make_unique<Metrics>();
    if (config.streaming_pct) metrics->use_streaming_pct();
    // One shard runs with no sink: every ownership test passes and the
    // construction is bit-identical to the legacy single-threaded System.
    const ShardSpec spec{i, n, n > 1 ? &sinks_[i] : nullptr};
    auto system =
        std::make_unique<System>(runtime_.loop(i), config.policy, topo_,
                                 config.proto, costs, *metrics, spec);
    shards_.push_back(Shard{std::move(metrics), std::move(system)});
  }
}

void ShardedSystem::preattach(UeId ue, std::uint32_t region) {
  System& home = *shards_[shard_of_region(region)].system;
  home.frontend().preattach_context(ue, region);
  const auto state = Frontend::make_preattached_state(region);
  const CpfId primary = home.primary_cpf_for(ue, region);
  system(shard_of_region(topo_.region_of_cpf(primary)))
      .cpf(primary)
      .preinstall(ue, state);
  for (const CpfId b : home.backups_for(ue, region)) {
    system(shard_of_region(topo_.region_of_cpf(b)))
        .cpf(b)
        .preinstall(ue, state);
  }
  home.upf(region).preinstall(ue);
}

void ShardedSystem::schedule_crash(SimTime at, CpfId id) {
  for (Shard& shard : shards_) {
    System* sys = shard.system.get();
    sys->loop().schedule_at(at, [sys, id] { sys->crash_cpf(id); });
  }
}

void ShardedSystem::schedule_restore(SimTime at, CpfId id) {
  for (Shard& shard : shards_) {
    System* sys = shard.system.get();
    sys->loop().schedule_at(at, [sys, id] { sys->restore_cpf(id); });
  }
}

void ShardedSystem::schedule_cta_crash(SimTime at, std::uint32_t region) {
  for (Shard& shard : shards_) {
    System* sys = shard.system.get();
    sys->loop().schedule_at(at, [sys, region] { sys->crash_cta(region); });
  }
}

void ShardedSystem::schedule_scale_out(SimTime at, CpfId id) {
  for (Shard& shard : shards_) {
    System* sys = shard.system.get();
    sys->loop().schedule_at(at, [sys, id] { sys->scale_out_cpf(id); });
  }
}

void ShardedSystem::schedule_drain(SimTime at, CpfId id) {
  for (Shard& shard : shards_) {
    System* sys = shard.system.get();
    sys->loop().schedule_at(at, [sys, id] { sys->drain_cpf(id); });
  }
}

void ShardedSystem::run_until(SimTime horizon) {
  runtime_.run_until(horizon, [this](std::size_t dst, SimTime arrival,
                                     ShardEnvelope&& envelope) {
    shards_[dst].system->deliver_envelope(arrival, std::move(envelope));
  });
}

Metrics ShardedSystem::merged_metrics() const {
  Metrics out;
  for (const Shard& shard : shards_) out.merge_from(*shard.metrics);
  return out;
}

}  // namespace neutrino::core
