// ShardedClusterRuntime — the disaggregated cluster on the multi-threaded
// conservative runtime (src/common/sharded_runtime.h).
//
// Single-loop RunDisaggregated interleaves every host on ONE EventLoop;
// correct, but serial. This runtime partitions the cluster into logical
// processes — LP 0 is the DEVICE shard (the shared SM stack), LP 1+i is
// host i (its SdmStore + InferenceEngine + workload + per-shard
// BufferArena) — and runs them on num_shards worker threads. The only
// cross-LP interaction is the fabric hop, so the conservative lookahead is
// the one-way fabric latency; sharded mode therefore REQUIRES a non-instant
// fabric (fabric_latency > 0). Zero-latency-fabric experiments (the
// byte-identity anchors) keep num_shards = 1.
//
// What moves where, versus the single-loop path:
//   - BatchScheduler / DirectIoReader / IoEngine / BufferArena move
//     HOST-side (a remote SLICE of SharedDeviceService per host): batching
//     and coalescing decisions are per-host state, so they can run
//     unsynchronized within a window.
//   - The device shard keeps the NvmeDevices and grows a
//     ShardDeviceEndpoint providing the device-side invariants the shared
//     engine used to: the per-device queue-depth bound across ALL hosts and
//     cross-host single-flight (exact-span joins).
//   - Fabric timing splits by direction: each host owns per-port REQUEST
//     links (doorbells), the device shard owns per-(host, port) RESPONSE
//     links (payloads) — each side owns the direction it transmits on, so
//     busy/queue state stays shard-local. Note the divergence from the
//     single-loop path's ONE link per device shared by every host: under
//     concurrent load per-host ports contend less, which is a (documented)
//     modeling difference, not an approximation of the same model.
//
// Determinism: results are bit-identical for every num_shards >= 2 (worker
// count never affects the message merge order — see ShardedRuntime), and
// AGGREGATE-identical to the single-loop path whenever hosts' IOs do not
// overlap in time (the serial-load oracle the tests pin). Arrival streams,
// router draws, and placement replicate the single-loop seed derivations
// exactly; arrivals are precomputed sequentially pre-run in the single
// loop's (time, seq) execution order, then scheduled onto target host LPs.
//
// Faults (src/fault): device windows (error bursts, fail-slow, stalls) run
// on the device shard's injector; partition windows also run on per-host
// injector CLONES for the request links — deferral is a deterministic plan
// scan, so clones see identical heal times. Fabric-DROP windows draw
// per-transfer RNG on whichever link the transfer crosses, which cannot be
// replicated across shards — InstallFaultPlan rejects them (use
// num_shards = 1).
#pragma once

#include <memory>
#include <vector>

#include "common/sharded_runtime.h"
#include "fabric/fabric_link.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "io/remote_channel.h"
#include "serving/arrival_loop.h"
#include "serving/cluster.h"
#include "tenant/shard_device_endpoint.h"

namespace sdm {

class ShardedClusterRuntime {
 public:
  /// `num_shards` worker threads (>= 2; 1 means "use ClusterSimulation's
  /// single loop" and never reaches this class).
  ShardedClusterRuntime(size_t num_hosts, const HostSimConfig& host_config,
                        RoutingPolicy policy, size_t num_shards);

  ShardedClusterRuntime(const ShardedClusterRuntime&) = delete;
  ShardedClusterRuntime& operator=(const ShardedClusterRuntime&) = delete;

  /// Loads the model on every host shard (sequential, pre-threads).
  /// Placement delegates to the device stack's extent registry, so
  /// cross-host dedup is byte-identical to the single-loop path. Rejects
  /// configs the sharded runtime cannot run bit-deterministically
  /// (instant fabric).
  Status LoadModel(const ModelConfig& model);

  /// Installs a scripted fault plan: device windows on the device shard,
  /// partition windows additionally on per-host injector clones. Rejects
  /// plans containing fabric-drop windows (see file header). Replaces any
  /// previously installed plan.
  Status InstallFaultPlan(const FaultPlan& plan, uint64_t seed);

  /// The sharded counterpart of ClusterSimulation::RunDisaggregated: same
  /// arrival draws, same shard builder, same RunMeter and report fold. Callable repeatedly
  /// (warmup then measure); caches stay warm, clocks carry over.
  [[nodiscard]] DisaggregatedRunReport Run(double total_qps, uint64_t num_queries);

  [[nodiscard]] size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] size_t num_shards() const { return num_shards_; }
  [[nodiscard]] SdmStore& host_store(size_t i) { return *hosts_[i].shard.store; }
  /// The device shard's stack (test/report introspection only off-run).
  [[nodiscard]] SharedDeviceService& device_stack() { return *stack_; }
  [[nodiscard]] ShardDeviceEndpoint& endpoint() { return *endpoint_; }
  /// Runtime introspection: windows, cross-shard messages, event counts.
  [[nodiscard]] const ShardedRuntime& runtime() const { return runtime_; }

  /// Observability exports (src/obs): one Observability per LP (the device
  /// shard records under "svc/", host i under "host<i>/"), merged at export
  /// time — the documents are bit-identical for every worker count because
  /// recording is LP-local and the merge orders by name / virtual time, not
  /// by thread interleaving. "{}" when tuning.obs is off.
  [[nodiscard]] std::string ObsMetricsJson();
  [[nodiscard]] std::string ObsTraceJson();
  [[nodiscard]] std::string ObsSloJson();

 private:
  static constexpr size_t kDeviceLp = 0;

  /// Host i's RemoteDeviceChannel: forwards engine doorbells into the
  /// cluster's fabric + mailbox plumbing.
  class HostChannel : public RemoteDeviceChannel {
   public:
    HostChannel(ShardedClusterRuntime* cluster, size_t host)
        : cluster_(cluster), host_(host) {}
    void SubmitDoorbell(size_t port, std::vector<RemoteReadOp> ops) override {
      cluster_->Doorbell(host_, port, std::move(ops));
    }

   private:
    ShardedClusterRuntime* cluster_;
    size_t host_;
  };

  struct HostShard {
    TenantId stack_id = 0;  ///< identity on the device stack (dedup domain)
    std::unique_ptr<HostChannel> channel;
    std::vector<std::unique_ptr<FabricLink>> request_links;  ///< per port
    std::unique_ptr<FaultInjector> injector;  ///< partition-defer clone
    std::unique_ptr<SharedDeviceService> slice;
    ServingShard shard;  ///< store, engine and workload on this host's LP
    ArrivalStats stats;  ///< current run's serving stats (this LP only)
  };

  /// Runs on host `host`'s loop: pays the request-direction fabric timing
  /// and ships the doorbell to the device shard.
  void Doorbell(size_t host, size_t port, std::vector<RemoteReadOp> ops);

  [[nodiscard]] size_t RouteTarget(size_t source, UserId user) const;
  /// The device stack's counters, scheduler stats summed over its slices.
  [[nodiscard]] StackCounters StackTotals();
  [[nodiscard]] FabricLinkStats FabricTotals() const;

  HostSimConfig base_config_;
  StickyRouter router_;
  size_t num_shards_;
  ShardedRuntime runtime_;
  /// Per-LP observability (index = LP id; empty when obs is off). Declared
  /// before the stacks so the recorders outlive every instrumented
  /// component.
  std::vector<std::unique_ptr<Observability>> obs_;
  std::unique_ptr<SharedDeviceService> stack_;  ///< device shard (LP 0)
  std::unique_ptr<ShardDeviceEndpoint> endpoint_;
  std::unique_ptr<FaultInjector> device_injector_;
  /// Response-direction links, device-side: [host * ports + port].
  std::vector<std::unique_ptr<FabricLink>> response_links_;
  std::vector<HostShard> hosts_;
  bool loaded_ = false;
};

}  // namespace sdm
