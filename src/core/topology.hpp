// Deployment topology: level-1 / level-2 regions, node placement, link
// latencies (Fig. 6 deployment model; CTA co-located with its region's CPF
// pool, per §4.3 "this option simplifies deployment").
#pragma once

#include <cassert>
#include <cstdint>

#include "common/clock.hpp"
#include "common/ids.hpp"

namespace neutrino::core {

/// CPF<->CPF within one region (the paper's two directly-cabled DPDK
/// servers: tens of microseconds end to end). The UE, CTA and UPF links
/// are constants of core/system.cpp.
inline constexpr SimTime kIntraRegionLink = SimTime::microseconds(5);

/// The links that cross region boundaries.
struct LatencyConfig {
  SimTime intra_l2 = SimTime::microseconds(400);     // across level-1 regions
  SimTime inter_l2 = SimTime::milliseconds(3);       // across level-2 regions
};

struct TopologyConfig {
  int l2_regions = 1;
  int l1_per_l2 = 1;
  int cpfs_per_region = 5;  // the paper's five CPF instances
  LatencyConfig latency;

  [[nodiscard]] int total_regions() const { return l2_regions * l1_per_l2; }
  [[nodiscard]] int total_cpfs() const {
    return total_regions() * cpfs_per_region;
  }
  [[nodiscard]] std::uint32_t l2_of(std::uint32_t region) const {
    return region / static_cast<std::uint32_t>(l1_per_l2);
  }
  [[nodiscard]] std::uint32_t region_of_cpf(CpfId cpf) const {
    return cpf.value() / static_cast<std::uint32_t>(cpfs_per_region);
  }
  [[nodiscard]] CpfId cpf_at(std::uint32_t region, int index) const {
    return CpfId(region * static_cast<std::uint32_t>(cpfs_per_region) +
                 static_cast<std::uint32_t>(index));
  }

  /// CPF<->CPF (or CTA<->remote CPF) propagation latency by region pair.
  [[nodiscard]] SimTime cpf_link(std::uint32_t region_a,
                                 std::uint32_t region_b) const {
    if (region_a == region_b) return kIntraRegionLink;
    if (l2_of(region_a) == l2_of(region_b)) return latency.intra_l2;
    return latency.inter_l2;
  }
};

/// Protocol timing knobs (paper values; tests shrink them).
struct ProtocolConfig {
  SimTime ack_timeout = SimTime::seconds(30);      // §4.2.4: 30 s
  SimTime log_scan_interval = SimTime::seconds(1);  // CTA periodic scan
  /// Failure detection time: excluded from PCT per §6.4 ("PCT does not
  /// include failure detection time"), so zero by default.
  SimTime failure_detection = SimTime::nanoseconds(0);
  /// Inactivity window after which the CPF releases the UE's S1 context
  /// (connected -> idle). Drives SyncMode::kOnIdle checkpointing (§3.1's
  /// SCALE behaviour).
  SimTime idle_release_after = SimTime::milliseconds(100);
  /// §4.2.4(4) refinement: only treat a replica as outdated when the
  /// previous procedure's ACKs have been missing longer than the normal
  /// synchronization delay. Firing the notify instantly turns transient
  /// checkpoint lag into a metastable notify storm on the sync cores
  /// (observed under overload); correctness does not depend on it — the
  /// UE-context version check rejects stale replicas regardless.
  SimTime rule4_grace = SimTime::milliseconds(10);
  /// Radio-coverage grace during an inter-CPF handover: a moving UE keeps
  /// the source cell for at most this long after the crossing; if the
  /// control plane has not commanded the handover by then, the link drops
  /// and the data-path outage starts (§3.3: "up to 90% of the application
  /// deadlines can be missed" during slow control handovers).
  SimTime ho_coverage_grace = SimTime::milliseconds(500);
  /// How long a CPF waits on a parked StateFetch (TAU / FastHandover
  /// arrival) before giving up and commanding Re-Attach. Without a bound
  /// the UE hangs forever if the fetch holder crashes while the request
  /// is in flight: the CTA will not resend (the *routed* CPF is alive)
  /// and the holder's reply never comes.
  SimTime fetch_timeout = SimTime::seconds(2);
  /// Elastic churn (DESIGN.md §19): how long a draining CPF keeps serving
  /// pinned in-flight procedures after it has been removed from every
  /// ring, before it retires. Long enough for a typical procedure to
  /// complete in place; whatever is still pending at retirement recovers
  /// through the ordinary failover/replay machinery.
  SimTime drain_grace = SimTime::milliseconds(200);

  // --- Overload control (DESIGN.md §13) -----------------------------------
  // The paper evaluates PCT up to the saturation knee (§6.3); these knobs
  // model what a production control plane does past it. All default to
  // "off" so the pre-overload behaviour (unbounded queues, no
  // retransmission) stays bit-identical for every existing experiment.

  /// Bounded ingress queue at the CTA's forwarding pool (jobs queued + in
  /// service). 0 = unbounded. When bounded, new attaches are admitted only
  /// while the pool is below attach_admission_fraction of this.
  std::size_t cta_queue_capacity = 0;
  /// Same bound for each CPF's request pool (the sync pool stays
  /// unbounded: replication completes work already admitted upstream).
  std::size_t cpf_queue_capacity = 0;
  /// Fraction of a bounded queue NEW attaches may fill before being shed;
  /// handover / service-request / in-flight traffic gets the full queue
  /// (§3's outage-sensitivity ordering).
  double attach_admission_fraction = 0.75;
  /// NAS-level retransmission timer at the UE/BS frontend: how long the UE
  /// waits for the next response of an in-flight procedure before
  /// re-sending its last uplink. 0 = retransmission disabled. The timeout
  /// doubles per attempt (exponential backoff), which is what turns a
  /// dropped/shed message into adaptive backpressure instead of a stall.
  SimTime nas_retx_timeout = SimTime::nanoseconds(0);
  /// Retransmissions of one uplink before the UE gives up and re-attaches
  /// (3GPP NAS timers expire into a fresh registration the same way).
  int nas_retx_budget = 4;
};

}  // namespace neutrino::core
