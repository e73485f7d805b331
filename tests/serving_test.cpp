// Tests for src/serving: host specs, inference engine semantics (Eq. 3
// latency hiding, inter-op parallelism), host simulation, fleet power math
// (Tables 8/9/10/11), cluster routing, multi-tenancy.
#include <gtest/gtest.h>

#include "dlrm/model_zoo.h"
#include "serving/cluster.h"
#include "serving/host.h"
#include "serving/power_model.h"

namespace sdm {
namespace {

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

HostSimConfig SmallHostConfig(HostSpec host = MakeHwSS()) {
  HostSimConfig cfg;
  cfg.host = std::move(host);
  cfg.fm_capacity = 8 * kMiB;
  cfg.sm_backing_per_device = 16 * kMiB;
  cfg.tuning.row_cache.capacity = 0;  // auto-size
  cfg.workload.num_users = 2000;
  cfg.workload.user_zipf_alpha = 0.9;
  cfg.workload.user_index_churn = 0.05;
  cfg.workload.seed = 5;
  cfg.inference.max_concurrent_queries = 32;
  cfg.seed = 5;
  return cfg;
}

ModelConfig SmallModel() { return MakeTinyUniformModel(16, 4, 2, 4000); }

// ---------------------------------------------------------------------------
// Host specs (Table 7).
// ---------------------------------------------------------------------------

TEST(HostSpecs, Table7Shapes) {
  EXPECT_EQ(MakeHwL().cpu_sockets, 2);
  EXPECT_TRUE(MakeHwL().ssds.empty());
  EXPECT_EQ(MakeHwSS().ssds.size(), 2u);
  EXPECT_EQ(MakeHwSS().ssds[0].technology, Technology::kNandFlash);
  EXPECT_TRUE(MakeHwAN().accelerator);
  EXPECT_EQ(MakeHwAO().ssds[0].technology, Technology::kOptaneSsd);
  EXPECT_EQ(MakeHwFAO().ssds.size(), 9u);
}

TEST(HostSpecs, PowerOrdering) {
  // Table 8: HW-SS is 0.4 of HW-L.
  EXPECT_NEAR(MakeHwSS().power / MakeHwL().power, 0.4, 1e-9);
  // Table 9: HW-S is 0.25 of HW-AN.
  EXPECT_NEAR(MakeHwS().power / MakeHwAN().power, 0.25, 1e-9);
  // Table 11: the Optane complement adds ~1%.
  EXPECT_NEAR(MakeHwFAO().power / MakeHwF().power, 1.01, 1e-9);
}

// ---------------------------------------------------------------------------
// InferenceEngine via HostSimulation.
// ---------------------------------------------------------------------------

TEST(HostSim, LoadsAndServes) {
  HostSimulation sim(SmallHostConfig());
  ASSERT_TRUE(sim.LoadModel(SmallModel()).ok());
  const HostRunReport r = sim.Run(500, 300);
  EXPECT_EQ(r.queries_completed, 300u);
  EXPECT_GT(r.p50.nanos(), 0);
  EXPECT_GE(r.p99, r.p95);
  EXPECT_GE(r.p95, r.p50);
}

TEST(HostSim, HitRateRisesWithWarmth) {
  HostSimulation sim(SmallHostConfig());
  ASSERT_TRUE(sim.LoadModel(SmallModel()).ok());
  const HostRunReport cold = sim.Run(500, 300);
  sim.Warmup(3000);
  const HostRunReport warm = sim.Run(500, 300);
  EXPECT_GT(warm.row_cache_hit_rate, cold.row_cache_hit_rate);
  EXPECT_GT(warm.row_cache_hit_rate, 0.5);
}

TEST(HostSim, WarmCacheReducesSmIops) {
  HostSimulation sim(SmallHostConfig());
  ASSERT_TRUE(sim.LoadModel(SmallModel()).ok());
  const HostRunReport cold = sim.Run(500, 300);
  sim.Warmup(3000);
  const HostRunReport warm = sim.Run(500, 300);
  EXPECT_LT(warm.sm_iops, cold.sm_iops);
}

TEST(HostSim, AchievesOfferedLoadWhenUnderSla) {
  HostSimulation sim(SmallHostConfig());
  ASSERT_TRUE(sim.LoadModel(SmallModel()).ok());
  sim.Warmup(1000);
  const HostRunReport r = sim.Run(200, 1000);
  EXPECT_NEAR(r.achieved_qps, 200, 40);
}

TEST(HostSim, SubBlockReadsKeepAmplificationNearOne) {
  HostSimConfig cfg = SmallHostConfig();
  cfg.tuning.sub_block_reads = true;
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(SmallModel()).ok());
  const HostRunReport r = sim.Run(300, 500);
  EXPECT_LT(r.sm_read_amplification, 1.2);
}

TEST(HostSim, BlockReadsAmplify) {
  HostSimConfig cfg = SmallHostConfig();
  cfg.tuning.sub_block_reads = false;
  // Per-row block IO is the amplification worst case this test documents;
  // coalescing merges same-block rows and would hide it.
  cfg.tuning.coalesce_io = false;
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(SmallModel()).ok());
  const HostRunReport r = sim.Run(300, 500);
  // 24B rows (16 dim int8) against 4KB blocks.
  EXPECT_GT(r.sm_read_amplification, 50);
}

TEST(HostSim, UserPathHiddenBehindItemPath) {
  // Eq. 3/4: on an Optane host with a warm cache, the SM user-table time
  // stays under the batched item-side time, so SDM adds no end-to-end
  // latency. (On Nand this is exactly what breaks for M2 in §5.2.)
  HostSimConfig cfg = SmallHostConfig(MakeHwAO());
  cfg.workload.user_index_churn = 0.01;
  ModelConfig model = SmallModel();
  model.item_batch_size = 256;  // heavy item side
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(model).ok());
  sim.Warmup(4000);
  (void)sim.Run(100, 500);
  const auto& user = sim.engine().user_path_latency();
  const auto& item = sim.engine().item_path_latency();
  EXPECT_LT(user.ValueAtQuantile(0.5), item.ValueAtQuantile(0.5));
}

TEST(HostSim, InterOpParallelismCutsLatency) {
  // A.2: ~20% latency reduction from overlapping embedding operators.
  HostSimConfig serial_cfg = SmallHostConfig();
  serial_cfg.inference.inter_op_parallelism = false;
  HostSimConfig parallel_cfg = SmallHostConfig();
  parallel_cfg.inference.inter_op_parallelism = true;

  HostSimulation serial(serial_cfg);
  HostSimulation parallel(parallel_cfg);
  ASSERT_TRUE(serial.LoadModel(SmallModel()).ok());
  ASSERT_TRUE(parallel.LoadModel(SmallModel()).ok());
  serial.Warmup(1000);
  parallel.Warmup(1000);
  const HostRunReport rs = serial.Run(100, 500);
  const HostRunReport rp = parallel.Run(100, 500);
  EXPECT_LT(rp.p50.nanos(), rs.p50.nanos());
}

TEST(HostSim, AdmissionQueueBoundsConcurrency) {
  HostSimConfig cfg = SmallHostConfig();
  cfg.inference.max_concurrent_queries = 2;
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(SmallModel()).ok());
  // Overload: latency inflates because queries queue, but all complete.
  const HostRunReport r = sim.Run(100'000, 300);
  EXPECT_EQ(r.queries_completed, 300u);
  EXPECT_GT(r.p99.nanos(), r.p50.nanos());
}

TEST(HostSim, FindMaxQpsRespectsSla) {
  HostSimulation sim(SmallHostConfig());
  ASSERT_TRUE(sim.LoadModel(SmallModel()).ok());
  sim.Warmup(2000);
  const double qps = sim.FindMaxQps(Millis(20), /*use_p99=*/false, 400, 50, 20'000);
  EXPECT_GT(qps, 50);
  const HostRunReport check = sim.Run(qps * 0.9, 500);
  EXPECT_LE(check.p95.nanos(), Millis(20).nanos() * 2);
}

TEST(HostSim, OptaneSustainsHigherQpsThanNandAtSla) {
  // §5.2's core claim: under accelerated (high) QPS the user-embedding IO
  // stream saturates Nand long before Optane — Nand's max SLA-compliant
  // QPS collapses. Row cache off so the devices see the raw Eq. 8 IOPS.
  ModelConfig model = MakeTinyUniformModel(16, 8, 2, 4000);

  HostSimConfig nand_cfg = SmallHostConfig(MakeHwAN());
  nand_cfg.tuning.enable_row_cache = false;
  HostSimConfig optane_cfg = SmallHostConfig(MakeHwAO());
  optane_cfg.tuning.enable_row_cache = false;
  HostSimulation nand(nand_cfg);
  HostSimulation optane(optane_cfg);
  ASSERT_TRUE(nand.LoadModel(model).ok());
  ASSERT_TRUE(optane.LoadModel(model).ok());
  const double nand_qps = nand.FindMaxQps(Millis(2), false, 500, 20, 40'000);
  const double optane_qps = optane.FindMaxQps(Millis(2), false, 500, 20, 40'000);
  EXPECT_GT(optane_qps, 1.5 * nand_qps);
}

// ---------------------------------------------------------------------------
// Power model (Tables 8/9/10/11 arithmetic).
// ---------------------------------------------------------------------------

TEST(PowerModel, Table8Reproduction) {
  // HW-L: 240 QPS at power 1.0; HW-SS+SDM: 120 QPS at power 0.4; demand
  // 288000 QPS total (1200 HW-L hosts).
  FleetScenario hw_l{"HW-L", 288'000, 240, 1.0, 0, 0};
  FleetScenario hw_ss{"HW-SS + SDM", 288'000, 120, 0.4, 0, 0};
  const FleetEstimate a = EvaluateFleet(hw_l);
  const FleetEstimate b = EvaluateFleet(hw_ss);
  EXPECT_DOUBLE_EQ(a.main_hosts, 1200);
  EXPECT_DOUBLE_EQ(b.main_hosts, 2400);
  EXPECT_DOUBLE_EQ(a.total_power, 1200);
  EXPECT_DOUBLE_EQ(b.total_power, 960);
  EXPECT_NEAR(PowerSaving(a, b), 0.20, 1e-9);
}

TEST(PowerModel, Table9Reproduction) {
  const double total = 450.0 * 1500;  // 675K QPS demand
  // Scale-out: HW-AN at 450 QPS + 1 HW-S (0.25 power) per 5 mains.
  ScaleOutModel so;
  const FleetScenario scale_out = so.Fleet("HW-AN + ScaleOut", total, 450, 1.0, 0.25);
  // Nand SDM: QPS collapses (paper: 230); Optane SDM holds 450.
  FleetScenario nand{"HW-AN + SDM", total, 230, 1.0, 0, 0};
  FleetScenario optane{"HW-AO + SDM", total, 450, 1.0, 0, 0};
  const FleetEstimate e_so = EvaluateFleet(scale_out);
  const FleetEstimate e_nand = EvaluateFleet(nand);
  const FleetEstimate e_opt = EvaluateFleet(optane);
  EXPECT_DOUBLE_EQ(e_so.main_hosts, 1500);
  EXPECT_DOUBLE_EQ(e_so.helper_hosts, 300);
  EXPECT_DOUBLE_EQ(e_so.total_power, 1575);
  EXPECT_NEAR(e_nand.main_hosts, 2935, 1);  // paper rounds to 2978
  EXPECT_DOUBLE_EQ(e_opt.total_power, 1500);
  EXPECT_NEAR(PowerSaving(e_so, e_opt), 0.0476, 0.001);  // ~5%
  EXPECT_GT(e_nand.total_power, e_so.total_power);       // Nand loses
}

TEST(PowerModel, Table10SsdSizing) {
  // M3: 3150 QPS, 2000 user tables, PF 30, 80% hit rate -> ~36 MIOPS niner
  // Optane drives (after ~5% utilization headroom the paper implies).
  SsdSizingInput in;
  in.qps = 3150;
  in.user_tables = 2000;
  in.avg_pooling = 30;
  in.cache_hit_rate = 0.80;
  in.per_ssd_iops = 4e6;
  in.target_device_utilization = 1.0;
  const SsdSizingResult r = ComputeSsdRequirement(in);
  EXPECT_NEAR(r.required_iops / 1e6, 37.8, 0.1);  // paper rounds to 36
  EXPECT_EQ(r.ssds_needed, 10);  // ceil(37.8/4); paper's 36 -> 9
  // With the paper's rounded 36 MIOPS figure:
  in.qps = 3000;
  const SsdSizingResult r2 = ComputeSsdRequirement(in);
  EXPECT_EQ(r2.ssds_needed, 9);
}

TEST(PowerModel, Table11MultiTenancy) {
  const MultiTenancyEstimate e = EvaluateMultiTenancy(MultiTenancyScenario{});
  EXPECT_NEAR(e.fleet_power_ratio, 0.71, 0.01);   // paper: 0.71
  EXPECT_NEAR(e.perf_per_watt_gain, 0.41, 0.02);  // "up to 29% power saving"
}

TEST(PowerModel, FleetSummaryReadable) {
  const FleetEstimate e = EvaluateFleet({"x", 1000, 100, 1.0, 0, 0});
  EXPECT_NE(e.Summary().find("hosts=10"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Cluster routing (Fig. 4c).
// ---------------------------------------------------------------------------

TEST(Cluster, StickyRoutingIsDeterministic) {
  StickyRouter r(8, RoutingPolicy::kUserSticky, 1);
  for (UserId u = 0; u < 100; ++u) {
    EXPECT_EQ(r.Route(u), r.Route(u));
  }
}

TEST(Cluster, MeanHitRateIgnoresIdleHosts) {
  // Regression: the old report divided the hit-rate sum by hosts_.size(),
  // so idle hosts (empty user share) deflated the mean. One user -> the
  // sticky router sends ALL traffic to one host; the cluster mean must be
  // that host's hit rate, not hit/6.
  ModelConfig model = MakeTinyUniformModel(16, 3, 1, 8000);
  HostSimConfig cfg = SmallHostConfig();
  cfg.workload.num_users = 1;
  ClusterSimulation cluster(6, cfg, RoutingPolicy::kUserSticky);
  ASSERT_TRUE(cluster.LoadModel(model).ok());
  const ClusterRunReport r = cluster.Run(300, 2000);
  ASSERT_EQ(r.hosts.size(), 6u);
  size_t active = 0;
  size_t active_idx = 0;
  for (size_t i = 0; i < r.hosts.size(); ++i) {
    if (r.hosts[i].queries_served > 0) {
      ++active;
      active_idx = i;
    }
  }
  // Idle hosts are distinguishable: queries_served stays 0 on their
  // default-constructed report entries.
  ASSERT_EQ(active, 1u);
  EXPECT_EQ(r.hosts[active_idx].queries_served, 2000u);
  EXPECT_GT(r.hosts[active_idx].row_cache_hit_rate, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_hit_rate, r.hosts[active_idx].row_cache_hit_rate);
}

TEST(Cluster, LocalRoutingSpreadsArrivalsRoundRobin) {
  ModelConfig model = MakeTinyUniformModel(16, 3, 1, 8000);
  ClusterSimulation cluster(3, SmallHostConfig(), RoutingPolicy::kLocal);
  ASSERT_TRUE(cluster.LoadModel(model).ok());
  const ClusterRunReport r = cluster.Run(300, 900);
  for (const auto& h : r.hosts) EXPECT_EQ(h.queries_served, 300u);
}

TEST(Cluster, StickyBeatsRandomOnHitRate) {
  ModelConfig model = MakeTinyUniformModel(16, 3, 1, 8000);
  HostSimConfig host_cfg = SmallHostConfig();
  host_cfg.workload.num_users = 4000;
  host_cfg.workload.user_index_churn = 0.02;

  ClusterSimulation sticky(4, host_cfg, RoutingPolicy::kUserSticky);
  ClusterSimulation random(4, host_cfg, RoutingPolicy::kRandom);
  ASSERT_TRUE(sticky.LoadModel(model).ok());
  ASSERT_TRUE(random.LoadModel(model).ok());
  const ClusterRunReport rs = sticky.Run(400, 4000);
  const ClusterRunReport rr = random.Run(400, 4000);
  EXPECT_GT(rs.mean_hit_rate, rr.mean_hit_rate);
}

// ---------------------------------------------------------------------------
// Multi-tenancy (§5.3).
// ---------------------------------------------------------------------------

TEST(MultiTenant, CoLocatesModelsAndReportsFm) {
  HostSimConfig base = SmallHostConfig(MakeHwFAO(2));
  base.fm_capacity = 24 * kMiB;          // host-level FM pool
  base.sm_backing_per_device = 32 * kMiB;
  MultiTenantHost host(base, 77);
  // Each tenant's user embeddings (~5-8 MiB on SM) would not fit in the
  // FM shares without SM — the §5.3 memory-capacity-bound setup.
  ASSERT_TRUE(host.AddTenant(MakeTinyUniformModel(64, 2, 1, 40'000), 4 * kMiB).ok());
  ASSERT_TRUE(host.AddTenant(MakeTinyUniformModel(64, 3, 1, 30'000), 4 * kMiB).ok());
  ASSERT_TRUE(host.AddTenant(MakeTinyUniformModel(64, 2, 1, 35'000), 4 * kMiB).ok());
  EXPECT_EQ(host.tenant_count(), 3u);
  const MultiTenantReport r = host.Run(100, 300);
  ASSERT_EQ(r.tenants.size(), 3u);
  for (const auto& t : r.tenants) {
    EXPECT_EQ(t.run.queries_completed, 300u);
    EXPECT_GT(t.sm_used, 0u);
  }
  // The whole point: the tenant set would NOT fit in FM without SM.
  EXPECT_FALSE(r.fits_in_fm);
  EXPECT_GT(r.fm_total, 0u);
}

TEST(ScaleOut, AddsNetworkLatencyToUserPath) {
  const ScaleOutModel so;
  EXPECT_GT(so.UserPathLatency().nanos(), so.network_rtt.nanos());
}

// ---------------------------------------------------------------------------
// Disaggregated SM: hosts sharing one fabric-attached device stack
// (src/fabric).
// ---------------------------------------------------------------------------

/// Capacity-bound profile (the multitenant bench's): block-granularity
/// reads, no row cache, widened merge window — hot blocks recur at the
/// device, which is the traffic cross-host sharing can absorb.
HostSimConfig DisaggHostConfig() {
  HostSimConfig cfg;
  cfg.host = MakeHwFAO(2);
  cfg.fm_capacity = 4 * kMiB;
  cfg.sm_backing_per_device = 32 * kMiB;
  cfg.workload.num_users = 2000;
  cfg.workload.seed = 11;
  cfg.seed = 11;
  cfg.tuning.sub_block_reads = false;
  cfg.tuning.enable_row_cache = false;
  cfg.tuning.max_batch_delay = Micros(200);
  cfg.inference.max_concurrent_queries = 32;
  return cfg;
}

ModelConfig DisaggModel() {
  ModelConfig model = MakeTinyUniformModel(64, 3, 1, 40'000);
  model.tables.back().num_rows = 4'000;  // item side stays FM-direct
  for (auto& t : model.tables) {
    if (t.role == TableRole::kUser) t.zipf_alpha = 1.1;
  }
  return model;
}

TEST(Disaggregated, CrossHostSingleFlightOverFabric) {
  HostSimConfig cfg = DisaggHostConfig();
  cfg.tuning.fabric_latency = Micros(5);
  DisaggregatedConfig dc;
  dc.enabled = true;
  ClusterSimulation cluster(2, cfg, RoutingPolicy::kUserSticky, dc);
  ASSERT_TRUE(cluster.disaggregated());
  ASSERT_TRUE(cluster.LoadModel(DisaggModel()).ok());
  const DisaggregatedRunReport r = cluster.RunDisaggregated(400, 1600);
  ASSERT_EQ(r.hosts.size(), 2u);
  uint64_t per_host_hits = 0;
  for (const auto& h : r.hosts) {
    EXPECT_GT(h.run.queries_served, 0u);
    EXPECT_GT(h.run.queries_completed, 0u);
    per_host_hits += h.share.cross_tenant_hits;
  }
  EXPECT_GT(r.sm_device_reads, 0u);
  // Both hosts serve the same model: replicas dedup to ONE extent set...
  EXPECT_LT(r.sm_unique_bytes, r.sm_logical_bytes);
  // ...and the hosts single-flight each other's hot blocks through the
  // shared fabric service (the per-HOST ledger records whose read it was).
  EXPECT_GT(r.cross_host_hits, 0u);
  EXPECT_EQ(per_host_hits, r.cross_host_hits);
  EXPECT_GT(r.cross_host_bytes_saved, 0u);
  // Every doorbell and every payload paid the fabric.
  EXPECT_GT(r.fabric.requests, 0u);
  EXPECT_EQ(r.fabric.responses, r.sm_device_reads);
  EXPECT_GT(r.fabric.response_bytes, 0u);
  EXPECT_FALSE(r.Summary().empty());
}

TEST(Disaggregated, FabricQueueingKnobGatesFifoSerialization) {
  // tuning.fabric_queueing flows into the shared FabricLink: with a finite
  // bandwidth, FIFO queueing makes concurrent transfers wait behind each
  // other; with the knob off they overlap and no queue delay ever accrues.
  for (const bool queueing : {true, false}) {
    HostSimConfig cfg = DisaggHostConfig();
    cfg.tuning.fabric_latency = Micros(5);
    cfg.tuning.fabric_bandwidth_bytes_per_sec = 1e8;  // 4KiB -> ~40us on the wire
    cfg.tuning.fabric_queueing = queueing;
    DisaggregatedConfig dc;
    dc.enabled = true;
    ClusterSimulation cluster(2, cfg, RoutingPolicy::kUserSticky, dc);
    ASSERT_TRUE(cluster.LoadModel(DisaggModel()).ok());
    const DisaggregatedRunReport r = cluster.RunDisaggregated(400, 1600);
    EXPECT_GT(r.fabric.responses, 0u);
    if (queueing) {
      EXPECT_GT(r.fabric.queue_time.nanos(), 0);
    } else {
      EXPECT_EQ(r.fabric.queue_time.nanos(), 0);
    }
  }
}

TEST(Disaggregated, InstantFabricByteIdenticalToMultiTenantRunShared) {
  // Acceptance anchor: a disaggregated cluster with a zero-latency fabric
  // and kLocal routing IS MultiTenantHost::RunShared with the same stores —
  // same seeds, same arrival interleaving, same shared device stack.
  const HostSimConfig cfg = DisaggHostConfig();  // fabric knobs zero: instant
  const ModelConfig model = DisaggModel();
  constexpr size_t kHosts = 3;

  DisaggregatedConfig dc;
  dc.enabled = true;
  ClusterSimulation cluster(kHosts, cfg, RoutingPolicy::kLocal, dc);
  ASSERT_TRUE(cluster.LoadModel(model).ok());

  MultiTenantHost mth(cfg, /*seed=*/cfg.seed, /*shared_device=*/true);
  for (size_t i = 0; i < kHosts; ++i) {
    ASSERT_TRUE(mth.AddTenant(model, cfg.fm_capacity, TenantClass::kForeground).ok());
  }

  const DisaggregatedRunReport rc = cluster.RunDisaggregated(kHosts * 150.0, kHosts * 400);
  const MultiTenantReport rm = mth.Run(150.0, 400);

  // Device reads and bus bytes match bit for bit, device by device.
  SharedDeviceService& cs = cluster.fabric_service()->device_service();
  SharedDeviceService* ms = mth.service();
  ASSERT_NE(ms, nullptr);
  ASSERT_EQ(cs.device_count(), ms->device_count());
  for (size_t d = 0; d < cs.device_count(); ++d) {
    EXPECT_EQ(cs.device(d).stats().CounterValue("reads"),
              ms->device(d).stats().CounterValue("reads"));
    EXPECT_EQ(cs.device(d).stats().CounterValue("bus_bytes"),
              ms->device(d).stats().CounterValue("bus_bytes"));
  }
  EXPECT_EQ(rc.sm_device_reads, rm.sm_device_reads);
  EXPECT_EQ(rc.io.singleflight_hits, rm.io.singleflight_hits);
  // Per-host serving matches per-tenant serving, latencies included.
  ASSERT_EQ(rc.hosts.size(), rm.tenants.size());
  for (size_t i = 0; i < kHosts; ++i) {
    EXPECT_EQ(rc.hosts[i].run.queries_served, rm.tenants[i].run.queries_served);
    EXPECT_EQ(rc.hosts[i].run.queries_completed, rm.tenants[i].run.queries_completed);
    EXPECT_EQ(rc.hosts[i].run.p99.nanos(), rm.tenants[i].run.p99.nanos());
    EXPECT_EQ(rc.hosts[i].share.cross_tenant_hits, rm.tenants[i].share.cross_tenant_hits);
  }
  // The instant fabric recorded the traffic it did NOT delay.
  EXPECT_EQ(rc.fabric.responses, rc.sm_device_reads);
  EXPECT_EQ(rc.fabric.queue_time.nanos(), 0);
}

TEST(Disaggregated, DisabledFabricMatchesIsolatedCluster) {
  // A DisaggregatedConfig with enabled=false must build the exact isolated
  // cluster the 3-arg constructor builds.
  ModelConfig model = MakeTinyUniformModel(16, 3, 1, 8000);
  HostSimConfig cfg = SmallHostConfig();
  ClusterSimulation plain(3, cfg, RoutingPolicy::kUserSticky);
  ClusterSimulation disabled(3, cfg, RoutingPolicy::kUserSticky, DisaggregatedConfig{});
  EXPECT_FALSE(disabled.disaggregated());
  ASSERT_TRUE(plain.LoadModel(model).ok());
  ASSERT_TRUE(disabled.LoadModel(model).ok());
  const ClusterRunReport a = plain.Run(300, 1500);
  const ClusterRunReport b = disabled.Run(300, 1500);
  EXPECT_DOUBLE_EQ(a.mean_hit_rate, b.mean_hit_rate);
  ASSERT_EQ(a.hosts.size(), b.hosts.size());
  for (size_t i = 0; i < a.hosts.size(); ++i) {
    EXPECT_EQ(a.hosts[i].queries_served, b.hosts[i].queries_served);
    EXPECT_EQ(a.hosts[i].queries_completed, b.hosts[i].queries_completed);
    EXPECT_EQ(a.hosts[i].p99.nanos(), b.hosts[i].p99.nanos());
  }
  for (size_t i = 0; i < plain.size(); ++i) {
    for (size_t d = 0; d < plain.host(i).store().sm_device_count(); ++d) {
      EXPECT_EQ(plain.host(i).store().sm_device(d).stats().CounterValue("reads"),
                disabled.host(i).store().sm_device(d).stats().CounterValue("reads"));
      EXPECT_EQ(plain.host(i).store().sm_device(d).stats().CounterValue("bus_bytes"),
                disabled.host(i).store().sm_device(d).stats().CounterValue("bus_bytes"));
    }
  }
}

// ---------------------------------------------------------------------------
// Report formatting pins (shared KvFormatter path).
// ---------------------------------------------------------------------------

TEST(ReportFormat, HostRunReportSummaryIsPinned) {
  // Exact-output pin for the KvFormatter-built summary line: a formatting
  // regression (reordered keys, drifted precision, lost separator) must
  // fail loudly, not silently reshuffle every bench log.
  HostRunReport r;
  r.queries_completed = 100;
  r.offered_qps = 100;
  r.achieved_qps = 98.4;
  r.p50 = Millis(1.5);
  r.p95 = Millis(3.25);
  r.p99 = Millis(7);
  r.row_cache_hit_rate = 0.915;
  r.pooled_hit_rate = 0.25;
  r.sm_iops = 1234.6;
  r.sm_read_amplification = 1.75;
  r.avg_cpu_per_query = Micros(42);
  r.singleflight_hits = 5;
  r.cross_request_merges = 3;
  r.batch_occupancy = 2.5;
  r.prefetch_issued = 10;
  r.prefetch_hit_rate = 0.5;
  r.prefetch_wasted_bytes = 8 * kKiB;
  r.io_errors = 1;
  r.io_retries = 2;
  r.deadline_expired = 1;
  r.hedges_issued = 6;
  r.hedges_won = 2;
  r.queries_degraded = 1;
  r.rows_failed = 3;
  r.lookups_shed = 2;
  r.blocks_corrupt = 1;
  r.read_repairs = 1;
  r.replica_reads = 2;
  r.extents_replicated = 1;
  EXPECT_EQ(r.Summary(),
            "qps=98/100 p50=1.50ms p95=3.25ms p99=7.00ms hit=91.5% "
            "pooled=25.0% iops=1235 amp=1.75 cpu/q=42us sf=5 xmerge=3 "
            "occ=2.5 pf=10 pfhit=50.0% pfwaste=8KiB err=1 retry=2 ddl=1 "
            "hedge=2/6 deg=1 rowsf=3 shed=2 rot=1 rrd=1 rep=2 xrep=1");
}

TEST(ReportFormat, DisaggregatedRunReportSummaryIsPinned) {
  DisaggregatedRunReport r;
  r.hosts.resize(2);
  r.aggregate_qps = 512.3;
  r.mean_hit_rate = 0.805;
  r.sm_device_reads = 1000;
  r.io.singleflight_hits = 40;
  r.io.flushes = 10;
  r.io.device_reads = 20;
  r.io.prefetch_reads = 5;
  r.cross_host_hits = 7;
  r.sm_logical_bytes = 24 * kMiB;
  r.sm_unique_bytes = 16 * kMiB;
  r.fabric.response_bytes = 12 * kMiB / 10;  // 1.2 MiB
  r.fabric.queue_time = Micros(150);
  r.fabric.dropped = 2;
  r.fabric.partition_deferred = 3;
  r.io.deadline_expired = 1;
  r.io.hedges_issued = 4;
  r.io.hedges_won = 1;
  r.queries_degraded = 2;
  r.rows_failed = 5;
  r.blocks_corrupt = 1;
  r.read_repairs = 1;
  r.replica_reads = 2;
  r.extents_replicated = 1;
  EXPECT_EQ(r.Summary(),
            "hosts=2 qps=512 hit=80.5% reads=1000 sf=40 xhost=7 dedup=8.0MiB "
            "fabric=1.2MiB(resp) fq=150us occ=2.5 drop=2 part=3 ddl=1 "
            "hedge=1/4 deg=2 rowsf=5 rot=1 rrd=1 rep=2 xrep=1");
}

}  // namespace
}  // namespace sdm
