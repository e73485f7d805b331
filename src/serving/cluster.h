// Fleet-level composition: sticky routing, disaggregated SM, scale-out.
//
// - StickyRouter: queries route user->host by hash, so each host sees a
//   stable user sub-population and higher per-host temporal locality than
//   the global trace (paper Fig. 4c). Random routing is the baseline.
// - ClusterSimulation: the disaggregated cluster. Every host is a real
//   serving shard whose store attaches to ONE shared device stack behind a
//   fabric hop (src/fabric), and RunDisaggregated interleaves every host's
//   arrivals so cross-HOST single-flight of shared hot blocks is actually
//   exercised (the measured counterpart of the analytic ScaleOutModel
//   below). Two schedules take the same calls: one EventLoop, or the
//   sharded parallel runtime (src/serving/sharded_cluster.h).
// - ScaleOutModel: analytic latency/power for the (Lui et al.) sharded
//   alternative SDM competes against in §5.2.
// - MultiTenantHost (src/tenant/multi_tenant_host.h, re-exported here):
//   co-locates several models on one simulated host — as isolated stores,
//   or as real shards on a SharedDeviceService — to exercise the §5.3
//   capacity argument. Its isolated mode is also the fleet of hosts with
//   private local SM that the disaggregated cluster is measured against.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fabric/fabric_link.h"
#include "fault/fault_injector.h"
#include "serving/host.h"
#include "serving/power_model.h"
#include "serving/run_meter.h"
#include "tenant/multi_tenant_host.h"

namespace sdm {

enum class RoutingPolicy : uint8_t {
  kUserSticky,  ///< consistent hash of the user id (Fig. 4c affinity)
  kRandom,      ///< per-query draw (the no-affinity baseline)
  /// No redistribution: an arrival is served by the host whose frontend
  /// drew it. This is the shared-nothing baseline sticky routing is measured
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

/// How the disaggregated cluster runs (see file header). Fabric shape
/// (latency / bandwidth / queueing) comes from the host config's
/// TuningConfig fabric knobs.
struct DisaggregatedConfig {
  /// Always true for a servable cluster: LoadModel fails when it is false.
  /// Kept only for callers that still set it; it goes away with them.
  bool enabled = true;
  /// Worker threads for the sharded parallel runtime
  /// (src/serving/sharded_cluster.h): each host shard and the device shard
  /// become logical processes with private EventLoops, synchronized by
  /// conservative windows of one fabric latency. 0/1 runs every host on one
  /// EventLoop (byte-identical, required for instant fabrics); >= 2
  /// requires fabric_latency > 0 and produces results that are
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
  SimDuration throttle_queue_time;  ///< virtual time queued for IO slots, this run only
};

struct DisaggregatedRunReport {
  std::vector<DisaggregatedHostReport> hosts;
  /// Mean row-cache hit rate weighted by each host's served queries (idle
  /// hosts contribute nothing instead of deflating the mean).
  double mean_hit_rate = 0;
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

/// A fleet of identical hosts sharing one fabric-attached device stack.
/// Every host loads the same model as a real serving shard (SdmStore +
/// InferenceEngine + workload) attached to the stack as tenant "host-<i>";
/// RunDisaggregated draws each host's Poisson arrivals and lets the router
/// decide which host's engine each arrival enters. Seeds derive exactly
/// like MultiTenantHost's shared mode, so an instant fabric with kLocal
/// routing is byte-identical to RunShared with the same stores.
///
/// Two schedules take the same calls. num_shards <= 1 runs the stack, one
/// FabricLink per device port and every host on one EventLoop; >= 2 runs
/// them as logical processes of a ShardedClusterRuntime.
class ShardedClusterRuntime;

class ClusterSimulation {
 public:
  ClusterSimulation(size_t num_hosts, const HostSimConfig& host_config,
                    RoutingPolicy policy, const DisaggregatedConfig& disaggregated);
  ~ClusterSimulation();

  /// Builds and loads every host's shard. Fails on a disabled config, a
  /// host spec without SSDs, or tuning the shared stack cannot run.
  Status LoadModel(const ModelConfig& model);

  /// Installs a scripted fault plan (src/fault) on the whole cluster: media
  /// faults on the devices, drop and partition windows on the fabric links.
  /// Replaces any previously installed plan. The sharded runtime rejects
  /// fabric-drop windows (see sharded_cluster.h).
  Status InstallFaultPlan(const FaultPlan& plan, uint64_t seed);

  /// Interleaves every host's open-loop Poisson arrivals (total_qps and
  /// num_queries split evenly) against the shared device stack. Callable
  /// repeatedly (warmup then measure); caches stay warm, clocks carry over.
  [[nodiscard]] DisaggregatedRunReport RunDisaggregated(double total_qps,
                                                        uint64_t num_queries);

  [[nodiscard]] size_t size() const;
  [[nodiscard]] SdmStore& host_store(size_t i);
  /// The shared device stack: the device shard's on the sharded runtime,
  /// where it may be read only between runs.
  [[nodiscard]] SharedDeviceService& device_stack();
  /// The parallel runtime behind num_shards >= 2 (null otherwise).
  [[nodiscard]] ShardedClusterRuntime* sharded_runtime() { return sharded_.get(); }

  /// Observability exports (src/obs): the whole cluster, "{}" when
  /// tuning.obs is off. The device stack records under "svc/", host i under
  /// "host<i>/"; the sharded runtime merges its per-LP buffers into
  /// documents bit-identical across worker counts.
  [[nodiscard]] std::string ObsMetricsJson();
  [[nodiscard]] std::string ObsTraceJson();
  [[nodiscard]] std::string ObsSloJson();

 private:
  /// Serving host of arrival `i` carrying `user` (kLocal short-circuits
  /// the router: arrivals stay where they land).
  [[nodiscard]] size_t RouteTarget(size_t source, UserId user) const;
  /// Fabric traffic summed over the single loop's links.
  [[nodiscard]] FabricLinkStats FabricTotals() const;

  HostSimConfig base_config_;
  bool enabled_;
  StickyRouter router_;
  // ---- Single loop (num_shards <= 1) ----
  EventLoop loop_;  ///< the one loop every host shard runs on
  std::unique_ptr<Observability> obs_;  ///< outlives the stack
  std::unique_ptr<FaultInjector> injector_;  ///< outlives the stack and links
  std::unique_ptr<SharedDeviceService> stack_;
  std::vector<std::unique_ptr<FabricLink>> links_;  ///< one per device port
  std::vector<ServingShard> hosts_;  ///< host i is tenant i of stack_
  // ---- Sharded parallel runtime (num_shards >= 2) ----
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
