// Tests for the sharded parallel runtime (src/common/sharded_runtime.h)
// and the sharded disaggregated cluster built on it
// (src/serving/sharded_cluster.h).
//
// The load-bearing property is DETERMINISM, pinned from three angles:
//   1. ShardedRuntime executes the same trace for every worker count.
//   2. ShardedClusterRuntime reports are field-identical for every
//      num_shards >= 2 (the K-invariance oracle).
//   3. Under serial load — arrivals so sparse that no two hosts' IOs
//      overlap in time — the sharded cluster's aggregate report equals the
//      single-loop path's exactly, across routing policies and under a
//      scripted fault storm (the single-loop determinism oracle).
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/sharded_runtime.h"
#include "dlrm/model_zoo.h"
#include "fault/fault_injector.h"
#include "serving/cluster.h"
#include "serving/sharded_cluster.h"

namespace sdm {
namespace {

/// Absolute virtual time `d` past the epoch (loops start at SimTime(0)).
constexpr SimTime At(SimDuration d) { return SimTime(0) + d; }

// ---------------------------------------------------------------------------
// ShardedRuntime unit tests.
// ---------------------------------------------------------------------------

TEST(ShardedRuntime, RunsLocalEventsAndReportsWindows) {
  ShardedRuntime rt(2);
  const size_t a = rt.AddProcess();
  const size_t b = rt.AddProcess();
  // Both events share the [10us, 15us) window, so they may run on two
  // workers at once — cross-LP state in a window must be atomic.
  std::atomic<int> ran{0};
  rt.loop(a).ScheduleAt(At(Micros(10)), [&] { ++ran; });
  rt.loop(b).ScheduleAt(At(Micros(12)), [&] { ++ran; });
  const uint64_t events = rt.Run(Micros(5));
  EXPECT_EQ(events, 2u);
  EXPECT_EQ(ran.load(), 2);
  EXPECT_GE(rt.windows(), 1u);
  // Both clocks advanced to (at least) their last event.
  EXPECT_GE(rt.loop(a).Now().nanos(), Micros(10).nanos());
  EXPECT_GE(rt.loop(b).Now().nanos(), Micros(12).nanos());
}

TEST(ShardedRuntime, PostCrossesShardsAtTheRequestedTime) {
  ShardedRuntime rt(2);
  const size_t a = rt.AddProcess();
  const size_t b = rt.AddProcess();
  const SimDuration lookahead = Micros(5);
  SimTime delivered_at;
  rt.loop(a).ScheduleAt(At(Micros(3)), [&] {
    rt.Post(a, b, rt.loop(a).Now() + lookahead,
            [&] { delivered_at = rt.loop(b).Now(); });
  });
  rt.Run(lookahead);
  EXPECT_EQ(delivered_at.nanos(), (Micros(3) + lookahead).nanos());
  EXPECT_EQ(rt.messages_delivered(), 1u);
}

TEST(ShardedRuntime, WindowsSkipIdleGaps) {
  // Two events a full virtual second apart must NOT cost ~200k windows of
  // 5us each: windows jump to the next pending work.
  ShardedRuntime rt(1);
  const size_t a = rt.AddProcess();
  rt.loop(a).ScheduleAt(At(Micros(1)), [] {});
  rt.loop(a).ScheduleAt(At(Seconds(1)), [] {});
  rt.Run(Micros(5));
  EXPECT_LE(rt.windows(), 4u);
}

/// Ping-pong-with-fanout workload: every LP reacts to each delivery by
/// posting to every other LP for a few generations. Records a per-LP trace
/// of (virtual time, source) so two runs can be compared exactly.
std::vector<std::vector<std::pair<int64_t, size_t>>> FanoutTrace(
    size_t workers, size_t lps, int generations) {
  ShardedRuntime rt(workers);
  for (size_t i = 0; i < lps; ++i) rt.AddProcess();
  const SimDuration lookahead = Micros(2);
  std::vector<std::vector<std::pair<int64_t, size_t>>> trace(lps);
  // React(lp, from, gen): record, then fan out to every other LP.
  std::function<void(size_t, size_t, int)> react = [&](size_t lp, size_t from,
                                                       int gen) {
    trace[lp].push_back({rt.loop(lp).Now().nanos(), from});
    if (gen <= 0) return;
    for (size_t to = 0; to < lps; ++to) {
      if (to == lp) continue;
      rt.Post(lp, to, rt.loop(lp).Now() + lookahead,
              [&react, to, lp, gen] { react(to, lp, gen - 1); });
    }
  };
  for (size_t i = 0; i < lps; ++i) {
    rt.loop(i).ScheduleAt(At(Micros(1 + i)), [&react, i, generations] {
      react(i, i, generations);
    });
  }
  rt.Run(lookahead);
  return trace;
}

TEST(ShardedRuntime, TraceIsIdenticalForEveryWorkerCount) {
  const auto serial = FanoutTrace(/*workers=*/1, /*lps=*/5, /*generations=*/4);
  for (const size_t workers : {2u, 3u, 8u}) {
    const auto parallel = FanoutTrace(workers, 5, 4);
    ASSERT_EQ(parallel.size(), serial.size()) << "workers=" << workers;
    for (size_t lp = 0; lp < serial.size(); ++lp) {
      EXPECT_EQ(parallel[lp], serial[lp])
          << "workers=" << workers << " lp=" << lp;
    }
  }
}

TEST(ShardedRuntime, RepeatedRunsCarryClocksForward) {
  ShardedRuntime rt(2);
  const size_t a = rt.AddProcess();
  rt.AddProcess();
  rt.loop(a).ScheduleAt(At(Micros(10)), [] {});
  rt.Run(Micros(5));
  // Clocks rest at the END of the last window, past the last event.
  const SimTime after_first = rt.loop(a).Now();
  EXPECT_GE(after_first.nanos(), Micros(10).nanos());
  SimTime fired;
  rt.loop(a).ScheduleAfter(Micros(7), [&] { fired = rt.loop(a).Now(); });
  rt.Run(Micros(5));
  // The second run's relative schedule is anchored on the carried clock.
  EXPECT_EQ(fired.nanos(), (after_first + Micros(7)).nanos());
}

// ---------------------------------------------------------------------------
// Sharded disaggregated cluster: oracles against the single-loop path.
// ---------------------------------------------------------------------------

/// The serving_test disaggregated profile, minus batching delay: with
/// max_batch_delay = 0 the shared single-loop scheduler and the sharded
/// per-host schedulers flush identically, so under serial load the two
/// modes are event-for-event comparable.
HostSimConfig ShardedHostConfig() {
  HostSimConfig cfg;
  cfg.host = MakeHwFAO(2);
  cfg.fm_capacity = 4 * kMiB;
  cfg.sm_backing_per_device = 32 * kMiB;
  cfg.workload.num_users = 2000;
  cfg.workload.seed = 11;
  cfg.seed = 11;
  cfg.tuning.sub_block_reads = false;
  cfg.tuning.enable_row_cache = false;
  cfg.tuning.max_batch_delay = SimDuration(0);
  cfg.tuning.fabric_latency = Micros(5);
  cfg.inference.max_concurrent_queries = 32;
  return cfg;
}

ModelConfig ShardedModel() {
  ModelConfig model = MakeTinyUniformModel(64, 3, 1, 40'000);
  model.tables.back().num_rows = 4'000;  // item side stays FM-direct
  for (auto& t : model.tables) {
    if (t.role == TableRole::kUser) t.zipf_alpha = 1.1;
  }
  return model;
}

DisaggregatedRunReport RunCluster(size_t hosts, const HostSimConfig& cfg,
                                  RoutingPolicy policy, size_t num_shards,
                                  double qps, uint64_t queries,
                                  const FaultPlan* plan = nullptr,
                                  const ModelConfig* model = nullptr) {
  DisaggregatedConfig dc;
  dc.enabled = true;
  dc.num_shards = num_shards;
  ClusterSimulation cluster(hosts, cfg, policy, dc);
  EXPECT_TRUE(cluster.LoadModel(model != nullptr ? *model : ShardedModel()).ok());
  if (plan != nullptr) {
    if (num_shards >= 2) {
      EXPECT_TRUE(
          cluster.sharded_runtime()->InstallFaultPlan(*plan, cfg.seed).ok());
    } else {
      // Single-loop installation: one injector over the whole stack. Leaked
      // into the cluster's lifetime via a static — tests only.
      static std::vector<std::unique_ptr<FaultInjector>> keep_alive;
      keep_alive.push_back(std::make_unique<FaultInjector>(
          *plan, cluster.host_store(0).loop(), cfg.seed));
      cluster.fabric_service()->InstallFaultInjector(keep_alive.back().get());
    }
  }
  return cluster.RunDisaggregated(qps, queries);
}

/// Field-by-field equality of two disaggregated reports (virtual-time
/// metrics only — wall clock never appears in a report).
void ExpectReportsEqual(const DisaggregatedRunReport& a,
                        const DisaggregatedRunReport& b) {
  ASSERT_EQ(a.hosts.size(), b.hosts.size());
  for (size_t i = 0; i < a.hosts.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "host " << i);
    const HostRunReport& x = a.hosts[i].run;
    const HostRunReport& y = b.hosts[i].run;
    EXPECT_EQ(x.queries_served, y.queries_served);
    EXPECT_EQ(x.queries_completed, y.queries_completed);
    EXPECT_EQ(x.p50.nanos(), y.p50.nanos());
    EXPECT_EQ(x.p95.nanos(), y.p95.nanos());
    EXPECT_EQ(x.p99.nanos(), y.p99.nanos());
    EXPECT_EQ(x.mean.nanos(), y.mean.nanos());
    EXPECT_DOUBLE_EQ(x.row_cache_hit_rate, y.row_cache_hit_rate);
    EXPECT_DOUBLE_EQ(x.pooled_hit_rate, y.pooled_hit_rate);
    EXPECT_EQ(x.io_errors, y.io_errors);
    EXPECT_EQ(x.queries_degraded, y.queries_degraded);
    EXPECT_EQ(x.rows_failed, y.rows_failed);
    EXPECT_EQ(x.blocks_corrupt, y.blocks_corrupt);
    EXPECT_EQ(x.replica_reads, y.replica_reads);
    EXPECT_EQ(x.read_repairs, y.read_repairs);
    EXPECT_EQ(x.extents_replicated, y.extents_replicated);
    EXPECT_EQ(x.io_retries, y.io_retries);
    EXPECT_EQ(x.lookups_shed, y.lookups_shed);
    EXPECT_EQ(x.prefetch_issued, y.prefetch_issued);
    EXPECT_EQ(x.avg_cpu_per_query.nanos(), y.avg_cpu_per_query.nanos());
    EXPECT_EQ(a.hosts[i].share.demand_reads, b.hosts[i].share.demand_reads);
    EXPECT_EQ(a.hosts[i].share.demand_bytes, b.hosts[i].share.demand_bytes);
    EXPECT_EQ(a.hosts[i].share.cross_tenant_hits,
              b.hosts[i].share.cross_tenant_hits);
    EXPECT_EQ(a.hosts[i].share.cross_tenant_bytes_saved,
              b.hosts[i].share.cross_tenant_bytes_saved);
  }
  EXPECT_DOUBLE_EQ(a.mean_hit_rate, b.mean_hit_rate);
  EXPECT_EQ(a.sm_device_reads, b.sm_device_reads);
  EXPECT_EQ(a.io.device_reads, b.io.device_reads);
  EXPECT_EQ(a.io.cross_request_merges, b.io.cross_request_merges);
  EXPECT_EQ(a.io.singleflight_hits, b.io.singleflight_hits);
  EXPECT_EQ(a.io.flushes, b.io.flushes);
  EXPECT_EQ(a.io.deadline_expired, b.io.deadline_expired);
  EXPECT_EQ(a.cross_host_hits, b.cross_host_hits);
  EXPECT_EQ(a.cross_host_bytes_saved, b.cross_host_bytes_saved);
  EXPECT_EQ(a.sm_logical_bytes, b.sm_logical_bytes);
  EXPECT_EQ(a.sm_unique_bytes, b.sm_unique_bytes);
  EXPECT_EQ(a.fabric.requests, b.fabric.requests);
  EXPECT_EQ(a.fabric.responses, b.fabric.responses);
  EXPECT_EQ(a.fabric.request_bytes, b.fabric.request_bytes);
  EXPECT_EQ(a.fabric.response_bytes, b.fabric.response_bytes);
  EXPECT_EQ(a.fabric.dropped, b.fabric.dropped);
  EXPECT_EQ(a.fabric.partition_deferred, b.fabric.partition_deferred);
  EXPECT_EQ(a.queries_degraded, b.queries_degraded);
  EXPECT_EQ(a.rows_failed, b.rows_failed);
  EXPECT_EQ(a.blocks_corrupt, b.blocks_corrupt);
  EXPECT_EQ(a.replica_reads, b.replica_reads);
  EXPECT_EQ(a.read_repairs, b.read_repairs);
  EXPECT_EQ(a.extents_replicated, b.extents_replicated);
}

// Serial load: at 2 QPS across the cluster, arrivals are ~500ms apart while
// an IO chain lasts microseconds — the probability of two hosts' IOs
// overlapping (the one regime where the shared single-loop schedulers and
// the per-host sharded schedulers can diverge) is ~0.
constexpr double kSerialQps = 2.0;
constexpr uint64_t kSerialQueries = 120;

TEST(ShardedCluster, SerialLoadMatchesSingleLoopAcrossRoutingPolicies) {
  const HostSimConfig cfg = ShardedHostConfig();
  for (const RoutingPolicy policy :
       {RoutingPolicy::kLocal, RoutingPolicy::kUserSticky,
        RoutingPolicy::kRandom}) {
    SCOPED_TRACE(testing::Message()
                 << "policy " << static_cast<int>(policy));
    const DisaggregatedRunReport single =
        RunCluster(2, cfg, policy, 1, kSerialQps, kSerialQueries);
    const DisaggregatedRunReport sharded =
        RunCluster(2, cfg, policy, 2, kSerialQps, kSerialQueries);
    ExpectReportsEqual(single, sharded);
  }
}

TEST(ShardedCluster, SerialLoadFaultStormMatchesSingleLoop) {
  // Partition + error burst + stall, spread across the ~60s serial run.
  // The plan is deterministic in both modes (partition deferral is a plan
  // scan; error draws happen in device-read order, identical under serial
  // load), so the fault counters must agree exactly. Windows are kept
  // SHORTER than the ~500ms inter-arrival gap: a longer partition/stall
  // queues several hosts' transfers and releases them together at heal
  // time, manufacturing exactly the cross-host IO overlap under which the
  // two modes legitimately diverge.
  const HostSimConfig cfg = ShardedHostConfig();
  FaultPlan plan;
  plan.FabricPartition(At(Seconds(5)), At(Seconds(5) + Millis(150)));
  plan.ErrorBurst(At(Seconds(20)), At(Seconds(30)), /*probability=*/1.0);
  plan.Stall(At(Seconds(40)), At(Seconds(40) + Millis(50)));
  const DisaggregatedRunReport single = RunCluster(
      2, cfg, RoutingPolicy::kUserSticky, 1, kSerialQps, kSerialQueries, &plan);
  const DisaggregatedRunReport sharded = RunCluster(
      2, cfg, RoutingPolicy::kUserSticky, 2, kSerialQps, kSerialQueries, &plan);
  // The storm actually bit: reads failed and queries degraded.
  EXPECT_GT(single.rows_failed, 0u);
  EXPECT_GT(single.queries_degraded, 0u);
  ExpectReportsEqual(single, sharded);
}

TEST(ShardedCluster, ReportIsInvariantAcrossShardCounts) {
  // At HIGH load (real cross-host IO overlap, thousands of messages per
  // window) every num_shards >= 2 must still produce the identical report:
  // the mailbox merge sorts by (time, source, seq), never by thread timing.
  const HostSimConfig cfg = ShardedHostConfig();
  const DisaggregatedRunReport k2 =
      RunCluster(4, cfg, RoutingPolicy::kUserSticky, 2, 2000, 2000);
  const DisaggregatedRunReport k4 =
      RunCluster(4, cfg, RoutingPolicy::kUserSticky, 4, 2000, 2000);
  const DisaggregatedRunReport k8 =
      RunCluster(4, cfg, RoutingPolicy::kUserSticky, 8, 2000, 2000);
  ExpectReportsEqual(k2, k4);
  ExpectReportsEqual(k2, k8);
}

TEST(ShardedCluster, HighLoadExercisesCrossHostSharingAndTheRuntime) {
  const HostSimConfig cfg = ShardedHostConfig();
  DisaggregatedConfig dc;
  dc.enabled = true;
  dc.num_shards = 2;
  ClusterSimulation cluster(2, cfg, RoutingPolicy::kUserSticky, dc);
  ASSERT_TRUE(cluster.disaggregated());
  ASSERT_EQ(cluster.fabric_service(), nullptr);
  ASSERT_NE(cluster.sharded_runtime(), nullptr);
  ASSERT_TRUE(cluster.LoadModel(ShardedModel()).ok());
  const DisaggregatedRunReport r = cluster.RunDisaggregated(2000, 2000);
  uint64_t served = 0;
  for (const auto& h : r.hosts) served += h.run.queries_served;
  EXPECT_EQ(served, 2000u);
  EXPECT_GT(r.sm_device_reads, 0u);
  // Replicas dedup to one extent set, and the endpoint single-flights
  // cross-host duplicates at the device shard.
  EXPECT_LT(r.sm_unique_bytes, r.sm_logical_bytes);
  EXPECT_GT(r.cross_host_hits, 0u);
  EXPECT_GT(r.fabric.requests, 0u);
  EXPECT_GT(r.fabric.response_bytes, 0u);
  // The parallel runtime actually ran windows and crossed shards.
  ShardedClusterRuntime& rt = *cluster.sharded_runtime();
  EXPECT_GT(rt.runtime().windows(), 0u);
  EXPECT_GT(rt.runtime().messages_delivered(), 0u);
  EXPECT_GT(rt.endpoint().doorbells(), 0u);
  EXPECT_FALSE(r.Summary().empty());
}

TEST(ShardedCluster, WarmupThenMeasureRunsBackToBack) {
  const HostSimConfig cfg = ShardedHostConfig();
  DisaggregatedConfig dc;
  dc.enabled = true;
  dc.num_shards = 2;
  ClusterSimulation cluster(2, cfg, RoutingPolicy::kUserSticky, dc);
  ASSERT_TRUE(cluster.LoadModel(ShardedModel()).ok());
  (void)cluster.RunDisaggregated(1000, 400);
  const DisaggregatedRunReport r = cluster.RunDisaggregated(1000, 600);
  uint64_t served = 0;
  for (const auto& h : r.hosts) served += h.run.queries_served;
  EXPECT_EQ(served, 600u);  // second run's arrivals only
}

TEST(ShardedCluster, RejectsInstantFabric) {
  HostSimConfig cfg = ShardedHostConfig();
  cfg.tuning.fabric_latency = SimDuration(0);  // no lookahead -> no windows
  DisaggregatedConfig dc;
  dc.enabled = true;
  dc.num_shards = 4;
  ClusterSimulation cluster(2, cfg, RoutingPolicy::kLocal, dc);
  const Status s = cluster.LoadModel(ShardedModel());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(ShardedCluster, RejectsFabricDropPlans) {
  // Per-transfer drop draws cannot be replicated across per-shard
  // injectors; the sharded path refuses rather than silently diverging.
  const HostSimConfig cfg = ShardedHostConfig();
  DisaggregatedConfig dc;
  dc.enabled = true;
  dc.num_shards = 2;
  ClusterSimulation cluster(2, cfg, RoutingPolicy::kLocal, dc);
  ASSERT_TRUE(cluster.LoadModel(ShardedModel()).ok());
  FaultPlan plan;
  plan.FabricDrop(At(Seconds(1)), At(Seconds(2)), 0.5);
  const Status s = cluster.sharded_runtime()->InstallFaultPlan(plan, 7);
  EXPECT_FALSE(s.ok());
  // The rejection names the workaround: drop experiments run single-loop.
  EXPECT_NE(s.message().find("num_shards=1"), std::string::npos) << s.ToString();
  // Deterministic kinds still install.
  FaultPlan ok_plan;
  ok_plan.FabricPartition(At(Seconds(1)), At(Seconds(2)));
  EXPECT_TRUE(cluster.sharded_runtime()->InstallFaultPlan(ok_plan, 7).ok());
}

// ---------------------------------------------------------------------------
// Self-healing layer under the sharded runtime.
// ---------------------------------------------------------------------------

/// The sharded profile with the self-healing layer armed. sub_block stays
/// false (inherited): the checksum layer verifies whole-block bounce fills
/// only. The large retry backoff makes replication copy-chunk retries
/// straddle the 2s error burst instead of exhausting inside it, so the
/// copy job deterministically survives to publish its route.
HostSimConfig HealingHostConfig() {
  HostSimConfig cfg = ShardedHostConfig();
  cfg.tuning.enable_checksums = true;
  cfg.tuning.enable_health_monitor = true;
  cfg.tuning.enable_replication = true;
  cfg.tuning.health_window = 8;
  cfg.tuning.health_probe_interval = 16;
  cfg.tuning.retry_backoff_base = Millis(300);
  return cfg;
}

/// One user table per SSD: the sick device owns exactly one extent, so the
/// heat-ranked single-loop picker and the sharded device shard's
/// (heat-blind, id-ordered) picker choose identical replication sets.
ModelConfig HealingModel() { return MakeTinyUniformModel(64, 2, 1, 4000); }

TEST(ShardedCluster, SelfHealingSerialLoadMatchesSingleLoop) {
  // ONE host: the single-loop path shares one fabric-service health monitor
  // across all hosts while the sharded path keeps per-slice monitors, so
  // health state only agrees mode-to-mode when a single host feeds it. The
  // 2s error burst drives device 0 sick, the replication manager copies its
  // extent to device 1 (copy retries outlast the burst), demand reads fail
  // over to the replica, and recovery probes eventually wash the primary
  // healthy — identically in both modes under serial load.
  //
  // Arrivals sit 2s apart (not the usual 500ms): a burst-hit read's full
  // retry + read-repair chain spans up to ~3 backoffs of 300ms, and serial
  // equality needs every chain to retire before the next arrival.
  const HostSimConfig cfg = HealingHostConfig();
  const ModelConfig model = HealingModel();
  FaultPlan plan;
  plan.ErrorBurst(At(Seconds(1)), At(Seconds(3)), /*probability=*/1.0,
                  /*device=*/0);
  const DisaggregatedRunReport single =
      RunCluster(1, cfg, RoutingPolicy::kLocal, 1, /*qps=*/0.5, kSerialQueries,
                 &plan, &model);
  const DisaggregatedRunReport sharded =
      RunCluster(1, cfg, RoutingPolicy::kLocal, 2, /*qps=*/0.5, kSerialQueries,
                 &plan, &model);
  // The healing layer actually engaged: the sick extent re-replicated and
  // demand reads served from the replica.
  EXPECT_GT(single.extents_replicated, 0u);
  EXPECT_GT(single.replica_reads, 0u);
  ExpectReportsEqual(single, sharded);
}

TEST(ShardedCluster, SelfHealingReportInvariantAcrossShardCounts) {
  // The same healing storm over two hosts: every num_shards >= 2 must agree
  // field-for-field, the healing counters included (K-invariance does not
  // need the single-loop oracle's one-host restriction).
  const HostSimConfig cfg = HealingHostConfig();
  const ModelConfig model = HealingModel();
  FaultPlan plan;
  plan.ErrorBurst(At(Seconds(1)), At(Seconds(3)), /*probability=*/1.0,
                  /*device=*/0);
  const DisaggregatedRunReport k2 =
      RunCluster(2, cfg, RoutingPolicy::kUserSticky, 2, kSerialQps,
                 kSerialQueries, &plan, &model);
  const DisaggregatedRunReport k4 =
      RunCluster(2, cfg, RoutingPolicy::kUserSticky, 4, kSerialQps,
                 kSerialQueries, &plan, &model);
  EXPECT_GT(k2.extents_replicated, 0u);
  ExpectReportsEqual(k2, k4);
}

TEST(ShardedCluster, NumShardsOneKeepsTheSingleLoopPath) {
  // num_shards = 1 must never construct the parallel runtime — it IS the
  // single-loop path, byte-identical by construction (the instant-fabric
  // byte-identity anchors in serving_test depend on this).
  const HostSimConfig cfg = ShardedHostConfig();
  DisaggregatedConfig dc;
  dc.enabled = true;
  dc.num_shards = 1;
  ClusterSimulation cluster(2, cfg, RoutingPolicy::kLocal, dc);
  EXPECT_EQ(cluster.sharded_runtime(), nullptr);
  EXPECT_NE(cluster.fabric_service(), nullptr);
}

}  // namespace
}  // namespace sdm
