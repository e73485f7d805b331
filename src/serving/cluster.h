// Fleet-level composition: sticky routing, scale-out, multi-tenancy,
// disaggregated SM.
//
// - StickyRouter / ClusterSimulation: queries route user->host by hash, so
//   each host sees a stable user sub-population and higher per-host
//   temporal locality than the global trace (paper Fig. 4c). Random
//   routing is available as the baseline.
// - Disaggregated mode (src/fabric): instead of per-host private SM, all
//   hosts' stores attach to ONE FabricAttachedService — a shared device
//   stack behind a configurable fabric hop — and RunDisaggregated
//   interleaves every host's arrivals on one EventLoop so cross-HOST
//   single-flight of shared hot blocks is actually exercised (the
//   measured counterpart of the analytic ScaleOutModel below).
// - ScaleOutModel: analytic latency/power for the (Lui et al.) sharded
//   alternative SDM competes against in §5.2.
// - MultiTenantHost (src/tenant/multi_tenant_host.h, re-exported here):
//   co-locates several models on one simulated host — as isolated stores,
//   or as real shards on a SharedDeviceService — to exercise the §5.3
//   capacity argument.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fabric/fabric_attached_service.h"
#include "serving/host.h"
#include "serving/power_model.h"
#include "serving/run_meter.h"
#include "tenant/multi_tenant_host.h"

namespace sdm {

enum class RoutingPolicy : uint8_t {
  kUserSticky,  ///< consistent hash of the user id (Fig. 4c affinity)
  kRandom,      ///< per-query draw (the no-affinity baseline)
  /// No redistribution: an arrival is served where it lands (round-robin
  /// partition in isolated Run; the drawing frontend in RunDisaggregated).
  /// This is the shared-nothing baseline sticky routing is measured
  /// against, and — with an instant fabric — the configuration that is
  /// byte-identical to MultiTenantHost::RunShared.
  kLocal,
};

/// Maps users to hosts. Sticky = consistent hash; random = per-query draw.
class StickyRouter {
 public:
  StickyRouter(size_t num_hosts, RoutingPolicy policy, uint64_t seed);

  /// Sticky routing is a pure hash of the user id, so routing a query does
  /// not mutate observable router state; only the kRandom baseline draws
  /// from the (mutable) RNG.
  [[nodiscard]] size_t Route(UserId user) const;

  [[nodiscard]] RoutingPolicy policy() const { return policy_; }

 private:
  size_t num_hosts_;
  RoutingPolicy policy_;
  mutable Rng rng_;  ///< used by kRandom only; never drawn on the hash path
};

struct ClusterRunReport {
  std::vector<HostRunReport> hosts;
  /// Mean row-cache hit rate weighted by each host's served queries (idle
  /// hosts contribute nothing instead of deflating the mean).
  double mean_hit_rate = 0;
  double aggregate_qps = 0;
};

/// Builds the cluster's hosts as shards of one fabric-attached device
/// stack instead of per-host private SM (see file header). Fabric shape
/// (latency / bandwidth / queueing) comes from the host config's
/// TuningConfig fabric knobs.
struct DisaggregatedConfig {
  bool enabled = false;
  /// Worker threads for the sharded parallel runtime
  /// (src/serving/sharded_cluster.h): each host shard and the device shard
  /// become logical processes with private EventLoops, synchronized by
  /// conservative windows of one fabric latency. 0/1 keeps today's
  /// single-loop path (byte-identical, required for instant fabrics);
  /// >= 2 requires fabric_latency > 0 and produces results that are
  /// bit-identical across every num_shards >= 2.
  size_t num_shards = 1;
};

/// Host `index`'s shard in a disaggregated cluster over `base`. Both
/// schedules (single loop and sharded runtime) build their hosts from it,
/// so they serve identical query streams. `obs` null = observability off.
[[nodiscard]] ShardSpec DisaggregatedHostSpec(const HostSimConfig& base, size_t index,
                                              Observability* obs);

/// One host's slice of a disaggregated run.
struct DisaggregatedHostReport {
  HostRunReport run;
  /// Per-HOST fair-share ledger of the shared device, this run only: lane
  /// bus bytes owned, and single-flight hits served by reads OTHER hosts
  /// paid for (`share.cross_tenant_hits` reads as cross-HOST hits).
  TenantIoShare share;
  SimDuration throttle_queue_time;  ///< virtual time queued for IO slots
};

struct DisaggregatedRunReport {
  std::vector<DisaggregatedHostReport> hosts;
  double mean_hit_rate = 0;  ///< served-query weighted, like ClusterRunReport
  double aggregate_qps = 0;
  // ---- Shared device stack, this run only ----
  uint64_t sm_device_reads = 0;  ///< physical device reads
  CrossRequestIoStats io;        ///< scheduler effectiveness
  uint64_t cross_host_hits = 0;  ///< runs served by another HOST's read
  Bytes cross_host_bytes_saved = 0;
  // ---- Model bytes (replicas of one model dedup to one extent set) ----
  Bytes sm_logical_bytes = 0;  ///< sum of host footprints
  Bytes sm_unique_bytes = 0;   ///< device bytes after cross-host dedup
  // ---- Fabric traffic, this run only ----
  FabricLinkStats fabric;
  // ---- Robustness (src/fault), this run only ----
  uint64_t queries_degraded = 0;  ///< completed queries with zero-filled rows
  uint64_t rows_failed = 0;       ///< zero-filled rows across the cluster
  // ---- Self-healing storage (src/fault), this run only ----
  uint64_t blocks_corrupt = 0;      ///< 4KB blocks failing their checksum
  uint64_t replica_reads = 0;       ///< demand reads failed over to a replica
  uint64_t read_repairs = 0;        ///< terminally-failed reads served from a replica
  uint64_t extents_replicated = 0;  ///< extents re-replicated off sick endpoints

  [[nodiscard]] std::string Summary() const;
};

/// Assembles a disaggregated run's report: cluster totals folded from the
/// host slices, plus this run's deltas of the shared stack and the fabric.
/// Both schedules report through here.
[[nodiscard]] DisaggregatedRunReport FoldDisaggregatedRun(
    std::vector<DisaggregatedHostReport> hosts, Bytes sm_logical_bytes, Bytes sm_unique_bytes,
    const StackCounters& stack, const FabricLinkStats& fabric);

/// A small fleet of identical hosts used to demonstrate routing effects:
/// every host loads the same model; a global user stream is partitioned by
/// the router; each host then serves its share.
///
/// Two SM attachments:
///  - isolated (default): each host is a full HostSimulation with private
///    devices; Run() replays the routed stream per host (exact — hosts
///    share nothing).
///  - disaggregated (DisaggregatedConfig::enabled): hosts are real shards
///    — SdmStore + InferenceEngine + workload on ONE EventLoop — attached
///    to one FabricAttachedService, and RunDisaggregated interleaves all
///    hosts' Poisson arrivals with the router deciding which host's engine
///    each arrival enters. Seeds derive exactly like MultiTenantHost's
///    shared mode, so an instant fabric with kLocal routing is
///    byte-identical to RunShared with the same stores.
class ShardedClusterRuntime;

class ClusterSimulation {
 public:
  ClusterSimulation(size_t num_hosts, const HostSimConfig& host_config,
                    RoutingPolicy policy);
  ClusterSimulation(size_t num_hosts, const HostSimConfig& host_config,
                    RoutingPolicy policy, const DisaggregatedConfig& disaggregated);
  ~ClusterSimulation();

  Status LoadModel(const ModelConfig& model);

  /// Routes `num_queries` global arrivals and runs each host at its share
  /// of `total_qps`. Isolated mode only.
  [[nodiscard]] ClusterRunReport Run(double total_qps, uint64_t num_queries);

  /// Interleaves every host's open-loop Poisson arrivals (total_qps and
  /// num_queries split evenly) on the common loop against the shared
  /// fabric-attached device stack. Disaggregated mode only.
  [[nodiscard]] DisaggregatedRunReport RunDisaggregated(double total_qps,
                                                        uint64_t num_queries);

  [[nodiscard]] bool disaggregated() const {
    return fabric_ != nullptr || sharded_ != nullptr;
  }
  [[nodiscard]] size_t size() const;
  /// Isolated-mode host (undefined in disaggregated mode).
  [[nodiscard]] HostSimulation& host(size_t i) { return *hosts_[i]; }
  /// Disaggregated-mode accessors (null/undefined in isolated mode).
  /// fabric_service() is the SINGLE-LOOP stack — null when the sharded
  /// runtime is active (use sharded_runtime() there).
  [[nodiscard]] FabricAttachedService* fabric_service() { return fabric_.get(); }
  [[nodiscard]] SdmStore& host_store(size_t i);
  /// The parallel runtime behind num_shards >= 2 (null otherwise).
  [[nodiscard]] ShardedClusterRuntime* sharded_runtime() { return sharded_.get(); }

  /// Observability exports (src/obs): non-empty iff tuning.obs.enabled().
  /// Disaggregated modes export the whole cluster — the sharded runtime
  /// merges its per-LP buffers into documents bit-identical across worker
  /// counts. Isolated mode returns "{}": each host there owns a private
  /// Observability (use host(i).ObsMetricsJson()).
  [[nodiscard]] std::string ObsMetricsJson();
  [[nodiscard]] std::string ObsTraceJson();
  [[nodiscard]] std::string ObsSloJson();

 private:
  /// Serving host of arrival `i` carrying `user` (kLocal short-circuits
  /// the router: arrivals stay where they land).
  [[nodiscard]] size_t RouteTarget(size_t source, UserId user) const;

  HostSimConfig base_config_;
  std::vector<std::unique_ptr<HostSimulation>> hosts_;  ///< isolated mode
  StickyRouter router_;
  // ---- Disaggregated mode (src/fabric) ----
  EventLoop dloop_;  ///< the one loop every host shard runs on
  std::unique_ptr<Observability> obs_;  ///< single-loop mode; outlives the stacks
  std::unique_ptr<FabricAttachedService> fabric_;
  std::vector<ServingShard> dhosts_;  ///< host i is tenant i of fabric_
  // ---- Sharded parallel mode (src/serving/sharded_cluster.h) ----
  std::unique_ptr<ShardedClusterRuntime> sharded_;
};

// ---------------------------------------------------------------------------
// Scale-out (the alternative SDM displaces, §5.2).
// ---------------------------------------------------------------------------

struct ScaleOutModel {
  /// Main hosts per helper (paper: one HW-S serves ~5 HW-AN).
  double mains_per_helper = 5.0;
  /// Network round trip for a remote embedding fetch.
  SimDuration network_rtt = Micros(100);
  /// Helper-side service time per query's user-embedding work.
  SimDuration helper_service = Micros(200);

  /// Added latency on the user path versus local DRAM.
  [[nodiscard]] SimDuration UserPathLatency() const { return network_rtt + helper_service; }

  /// Fleet scenario for mains at `qps_per_host` with helper overhead.
  [[nodiscard]] FleetScenario Fleet(const std::string& name, double total_qps,
                                    double qps_per_host, double main_power,
                                    double helper_power) const {
    FleetScenario s;
    s.name = name;
    s.total_qps = total_qps;
    s.qps_per_host = qps_per_host;
    s.host_power = main_power;
    s.helpers_per_host = 1.0 / mains_per_helper;
    s.helper_power = helper_power;
    return s;
  }
};

}  // namespace sdm
