#include "serving/cluster.h"

#include <cassert>

#include "common/kv_format.h"
#include "serving/arrival_loop.h"
#include "serving/sharded_cluster.h"

namespace sdm {

ShardSpec DisaggregatedHostSpec(const HostSimConfig& base, size_t index,
                                Observability* obs) {
  ShardSpec spec;
  spec.fm_capacity = base.fm_capacity;
  spec.store_seed = ShardSeed(base.seed, index);
  spec.workload_seed = ShardSeed(base.workload.seed, index);
  spec.tenant_class = TenantClass::kForeground;
  if (obs != nullptr) {
    spec.obs = obs;
    spec.obs_prefix = "host" + std::to_string(index) + "/";
  }
  return spec;
}

StickyRouter::StickyRouter(size_t num_hosts, RoutingPolicy policy, uint64_t seed)
    : num_hosts_(num_hosts), policy_(policy), rng_(seed) {
  assert(num_hosts >= 1);
}

size_t StickyRouter::Route(UserId user) const {
  if (policy_ == RoutingPolicy::kRandom) {
    return static_cast<size_t>(rng_.NextBounded(num_hosts_));
  }
  // kUserSticky; kLocal never reaches the router (the cluster keeps those
  // arrivals where they land), so the hash is a safe default.
  return static_cast<size_t>(Mix64(user) % num_hosts_);
}

ClusterSimulation::ClusterSimulation(size_t num_hosts, const HostSimConfig& host_config,
                                     RoutingPolicy policy)
    : ClusterSimulation(num_hosts, host_config, policy, DisaggregatedConfig{}) {}

ClusterSimulation::ClusterSimulation(size_t num_hosts, const HostSimConfig& host_config,
                                     RoutingPolicy policy,
                                     const DisaggregatedConfig& disaggregated)
    : base_config_(host_config), router_(num_hosts, policy, host_config.seed ^ 0xc1u) {
  assert(num_hosts >= 1);
  if (disaggregated.enabled && disaggregated.num_shards >= 2) {
    // Parallel runtime: host shards + device shard on worker threads.
    sharded_ = std::make_unique<ShardedClusterRuntime>(num_hosts, host_config, policy,
                                                       disaggregated.num_shards);
    return;
  }
  if (!disaggregated.enabled) {
    hosts_.reserve(num_hosts);
    for (size_t i = 0; i < num_hosts; ++i) {
      HostSimConfig cfg = host_config;
      cfg.seed = FleetHostSeed(host_config.seed, i);
      hosts_.push_back(std::make_unique<HostSimulation>(cfg));
    }
    return;
  }

  // ---- Disaggregated: one fabric-attached device stack for all hosts ----
  FabricServiceConfig fcfg;
  for (const auto& ssd : base_config_.host.ssds) {
    fcfg.device.sm_specs.push_back(ssd);
    fcfg.device.sm_backing_bytes.push_back(base_config_.sm_backing_per_device);
  }
  fcfg.device.tuning = base_config_.tuning;
  fcfg.device.seed = base_config_.seed;
  fcfg.link.latency = base_config_.tuning.fabric_latency;
  fcfg.link.bandwidth_bytes_per_sec = base_config_.tuning.fabric_bandwidth_bytes_per_sec;
  fcfg.link.queueing = base_config_.tuning.fabric_queueing;
  if (base_config_.tuning.obs.enabled()) {
    // One instance for the whole single-loop cluster; the shared device
    // stack records under "svc/", host i's store under "host<i>/".
    obs_ = std::make_unique<Observability>(base_config_.tuning.obs);
    fcfg.device.obs = obs_.get();
    fcfg.device.obs_prefix = "svc/";
  }
  fabric_ = std::make_unique<FabricAttachedService>(std::move(fcfg), &dloop_);
  dhosts_.resize(num_hosts);
  for (size_t i = 0; i < num_hosts; ++i) {
    const TenantId id = fabric_->AttachHost("host-" + std::to_string(i));
    assert(id == i);
    (void)id;
  }
}

ClusterSimulation::~ClusterSimulation() = default;

size_t ClusterSimulation::size() const {
  if (sharded_ != nullptr) return sharded_->host_count();
  return disaggregated() ? dhosts_.size() : hosts_.size();
}

SdmStore& ClusterSimulation::host_store(size_t i) {
  if (sharded_ != nullptr) return sharded_->host_store(i);
  return *dhosts_[i].store;
}

size_t ClusterSimulation::RouteTarget(size_t source, UserId user) const {
  if (router_.policy() == RoutingPolicy::kLocal) return source % size();
  return router_.Route(user);
}

Status ClusterSimulation::LoadModel(const ModelConfig& model) {
  if (sharded_ != nullptr) return sharded_->LoadModel(model);
  if (!disaggregated()) {
    for (auto& h : hosts_) {
      if (Status s = h->LoadModel(model); !s.ok()) return s;
    }
    return Status::Ok();
  }

  // ---- Disaggregated: each host is a shard on the fabric service ----
  if (Status s = base_config_.tuning.ValidateForDisaggregated(); !s.ok()) return s;
  if (fabric_->device_service().device_count() == 0) {
    return FailedPreconditionError("disaggregated cluster needs a host spec with SSDs");
  }
  if (!dhosts_.empty() && dhosts_[0].store != nullptr) {
    return FailedPreconditionError("model already loaded");
  }
  for (size_t i = 0; i < dhosts_.size(); ++i) {
    ShardSpec spec = DisaggregatedHostSpec(base_config_, i, obs_.get());
    spec.shared_device = &fabric_->device_service();
    spec.tenant_id = static_cast<TenantId>(i);
    auto shard = BuildServingShard(base_config_, model, spec, &dloop_);
    if (!shard.ok()) return shard.status();
    dhosts_[i] = std::move(shard).value();
  }
  return Status::Ok();
}

ClusterRunReport ClusterSimulation::Run(double total_qps, uint64_t num_queries) {
  assert(!disaggregated());
  if (disaggregated()) return {};  // wrong-mode call: fail empty, not UB
  // Partition a global user stream by the router. Each host then serves its
  // sub-population at its share of the global rate. Hosts run on separate
  // event loops (they do not interact beyond routing), so running them
  // sequentially is exact.
  std::vector<std::vector<UserId>> per_host_users(hosts_.size());
  // Reuse the first host's generator distributions to draw the user stream.
  QueryGenerator& reference = hosts_[0]->workload();
  for (uint64_t i = 0; i < num_queries; ++i) {
    const Query q = reference.Next();  // draws a popularity-weighted user
    per_host_users[RouteTarget(i, q.user)].push_back(q.user);
  }

  ClusterRunReport report;
  report.hosts.reserve(hosts_.size());
  double hit_weighted = 0;
  uint64_t served_total = 0;
  for (size_t h = 0; h < hosts_.size(); ++h) {
    HostSimulation& host = *hosts_[h];
    const auto& users = per_host_users[h];
    if (users.empty()) {
      // Idle host: default report, distinguishable by queries_served == 0.
      report.hosts.push_back(HostRunReport{});
      continue;
    }
    // Serve this host's routed queries at the proportional rate by feeding
    // the exact user sequence through the host's own engine.
    const double host_qps =
        total_qps * static_cast<double>(users.size()) / static_cast<double>(num_queries);
    HostRunReport r = host.RunUsers(users, host_qps);
    hit_weighted += r.row_cache_hit_rate * static_cast<double>(r.queries_served);
    served_total += r.queries_served;
    report.aggregate_qps += r.achieved_qps;
    report.hosts.push_back(std::move(r));
  }
  // Weight by served queries: idle hosts must not deflate the mean, and a
  // host serving most of the traffic should dominate it.
  report.mean_hit_rate =
      served_total == 0 ? 0 : hit_weighted / static_cast<double>(served_total);
  return report;
}

DisaggregatedRunReport ClusterSimulation::RunDisaggregated(double total_qps,
                                                           uint64_t num_queries) {
  assert(disaggregated());
  assert(total_qps > 0);
  if (sharded_ != nullptr) return sharded_->Run(total_qps, num_queries);
  if (dhosts_.empty() || dhosts_[0].store == nullptr) return {};
  const size_t n = dhosts_.size();
  const double qps_each = total_qps / static_cast<double>(n);
  const uint64_t queries_each = num_queries / n;
  SharedDeviceService& service = fabric_->device_service();

  std::vector<RunMeter> meters;
  std::vector<ArrivalParticipant> participants;
  meters.reserve(n);
  participants.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    meters.emplace_back(dhosts_[i]);
    participants.push_back(
        dhosts_[i].Participant(ArrivalSeed(FleetHostSeed(base_config_.seed, i))));
  }
  const StackCounters stack0 = StackCounters::Of(service);
  const FabricLinkStats fab0 = fabric_->fabric_stats();

  // ---- Interleave every host's arrivals; the router redistributes ----
  const SimTime t_begin = dloop_.Now();
  const std::vector<ArrivalStats> states = RunInterleavedArrivals(
      dloop_, participants, qps_each, queries_each,
      [this](size_t source, const Query& q) { return RouteTarget(source, q.user); });
  const SimDuration span = dloop_.Now() - t_begin;

  std::vector<DisaggregatedHostReport> hosts(n);
  Bytes sm_logical = 0;
  for (size_t i = 0; i < n; ++i) {
    hosts[i].run = meters[i].Report(states[i], qps_each, span);
    hosts[i].share = meters[i].share();
    hosts[i].throttle_queue_time = meters[i].throttle_queue_time();
    sm_logical += dhosts_[i].store->sm_used_bytes();
  }
  return FoldDisaggregatedRun(std::move(hosts), sm_logical, service.sm_used_bytes(),
                              StackCounters::Of(service).Since(stack0),
                              fabric_->fabric_stats().Since(fab0));
}

DisaggregatedRunReport FoldDisaggregatedRun(std::vector<DisaggregatedHostReport> hosts,
                                            Bytes sm_logical_bytes, Bytes sm_unique_bytes,
                                            const StackCounters& stack,
                                            const FabricLinkStats& fabric) {
  DisaggregatedRunReport report;
  double hit_weighted = 0;
  uint64_t served_total = 0;
  for (const DisaggregatedHostReport& hr : hosts) {
    report.queries_degraded += hr.run.queries_degraded;
    report.rows_failed += hr.run.rows_failed;
    report.replica_reads += hr.run.replica_reads;
    report.read_repairs += hr.run.read_repairs;
    report.cross_host_hits += hr.share.cross_tenant_hits;
    report.cross_host_bytes_saved += hr.share.cross_tenant_bytes_saved;
    report.aggregate_qps += hr.run.achieved_qps;
    hit_weighted += hr.run.row_cache_hit_rate * static_cast<double>(hr.run.queries_served);
    served_total += hr.run.queries_served;
  }
  report.hosts = std::move(hosts);
  report.mean_hit_rate =
      served_total == 0 ? 0 : hit_weighted / static_cast<double>(served_total);
  report.sm_logical_bytes = sm_logical_bytes;
  report.sm_unique_bytes = sm_unique_bytes;
  report.sm_device_reads = stack.device_reads;
  report.blocks_corrupt = stack.blocks_corrupt;
  report.extents_replicated = stack.extents_replicated;
  report.io = stack.io;
  report.fabric = fabric;
  return report;
}

std::string ClusterSimulation::ObsMetricsJson() {
  if (sharded_ != nullptr) return sharded_->ObsMetricsJson();
  if (obs_ == nullptr) return "{}";
  obs_->Finalize();
  return obs_->MetricsJson();
}

std::string ClusterSimulation::ObsTraceJson() {
  if (sharded_ != nullptr) return sharded_->ObsTraceJson();
  if (obs_ == nullptr) return "{}";
  obs_->Finalize();
  return obs_->TraceJson();
}

std::string ClusterSimulation::ObsSloJson() {
  if (sharded_ != nullptr) return sharded_->ObsSloJson();
  if (obs_ == nullptr) return "{}";
  obs_->Finalize();
  return obs_->SloJson();
}

std::string DisaggregatedRunReport::Summary() const {
  KvFormatter f;
  f.Kv("hosts", "%zu", hosts.size())
      .Kv("qps", "%.0f", aggregate_qps)
      .Kv("hit", "%.1f%%", mean_hit_rate * 100)
      .Kv("reads", "%llu", static_cast<unsigned long long>(sm_device_reads))
      .Kv("sf", "%llu", static_cast<unsigned long long>(io.singleflight_hits))
      .Kv("xhost", "%llu", static_cast<unsigned long long>(cross_host_hits))
      .Kv("dedup", "%.1fMiB", AsMiB(sm_logical_bytes - sm_unique_bytes))
      .Kv("fabric", "%.1fMiB(resp)", AsMiB(fabric.response_bytes))
      .Kv("fq", "%.0fus", fabric.queue_time.micros())
      .Kv("occ", "%.1f", io.BatchOccupancy())
      .Kv("drop", "%llu", static_cast<unsigned long long>(fabric.dropped))
      .Kv("part", "%llu", static_cast<unsigned long long>(fabric.partition_deferred))
      .Kv("ddl", "%llu", static_cast<unsigned long long>(io.deadline_expired))
      .Kv("hedge", "%llu/%llu", static_cast<unsigned long long>(io.hedges_won),
          static_cast<unsigned long long>(io.hedges_issued))
      .Kv("deg", "%llu", static_cast<unsigned long long>(queries_degraded))
      .Kv("rowsf", "%llu", static_cast<unsigned long long>(rows_failed))
      .Kv("rot", "%llu", static_cast<unsigned long long>(blocks_corrupt))
      .Kv("rrd", "%llu", static_cast<unsigned long long>(read_repairs))
      .Kv("rep", "%llu", static_cast<unsigned long long>(replica_reads))
      .Kv("xrep", "%llu", static_cast<unsigned long long>(extents_replicated));
  return f.str();
}

}  // namespace sdm
