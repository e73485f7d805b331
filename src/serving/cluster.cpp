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
                                     RoutingPolicy policy,
                                     const DisaggregatedConfig& disaggregated)
    : base_config_(host_config),
      enabled_(disaggregated.enabled),
      router_(num_hosts, policy, host_config.seed ^ 0xc1u) {
  assert(num_hosts >= 1);
  if (disaggregated.num_shards >= 2) {
    // Parallel runtime: host shards + device shard on worker threads.
    sharded_ = std::make_unique<ShardedClusterRuntime>(num_hosts, host_config, policy,
                                                       disaggregated.num_shards);
    return;
  }

  // ---- Single loop: one device stack behind one fabric port per device ----
  SharedDeviceConfig dcfg = DeviceStackConfig(base_config_, base_config_.seed);
  if (base_config_.tuning.obs.enabled()) {
    // One instance for the whole single-loop cluster; the shared device
    // stack records under "svc/", host i's store under "host<i>/".
    obs_ = std::make_unique<Observability>(base_config_.tuning.obs);
    dcfg.obs = obs_.get();
    dcfg.obs_prefix = "svc/";
  }
  stack_ = std::make_unique<SharedDeviceService>(std::move(dcfg), &loop_);
  const FabricLinkConfig lcfg = FabricLinkFor(base_config_.tuning);
  links_.reserve(stack_->device_count());
  for (size_t d = 0; d < stack_->device_count(); ++d) {
    links_.push_back(std::make_unique<FabricLink>(lcfg, &loop_));
    stack_->io_engine(d).set_fabric_link(links_.back().get());
    if (obs_ != nullptr) links_.back()->set_obs(obs_.get(), "svc/dev" + std::to_string(d) + "/");
  }
  hosts_.resize(num_hosts);
  for (size_t i = 0; i < num_hosts; ++i) {
    const TenantId id =
        stack_->RegisterTenant("host-" + std::to_string(i), TenantClass::kForeground);
    assert(id == i);
    (void)id;
  }
}

ClusterSimulation::~ClusterSimulation() = default;

size_t ClusterSimulation::size() const {
  return sharded_ != nullptr ? sharded_->host_count() : hosts_.size();
}

SdmStore& ClusterSimulation::host_store(size_t i) {
  if (sharded_ != nullptr) return sharded_->host_store(i);
  return *hosts_[i].store;
}

SharedDeviceService& ClusterSimulation::device_stack() {
  return sharded_ != nullptr ? sharded_->device_stack() : *stack_;
}

size_t ClusterSimulation::RouteTarget(size_t source, UserId user) const {
  if (router_.policy() == RoutingPolicy::kLocal) return source % size();
  return router_.Route(user);
}

Status ClusterSimulation::LoadModel(const ModelConfig& model) {
  if (!enabled_) {
    return FailedPreconditionError(
        "a cluster is always disaggregated; use MultiTenantHost's isolated mode for "
        "hosts with private SM");
  }
  if (sharded_ != nullptr) return sharded_->LoadModel(model);
  if (Status s = base_config_.tuning.ValidateForDisaggregated(); !s.ok()) return s;
  if (stack_->device_count() == 0) {
    return FailedPreconditionError("disaggregated cluster needs a host spec with SSDs");
  }
  if (hosts_[0].store != nullptr) return FailedPreconditionError("model already loaded");
  for (size_t i = 0; i < hosts_.size(); ++i) {
    ShardSpec spec = DisaggregatedHostSpec(base_config_, i, obs_.get());
    spec.shared_device = stack_.get();
    spec.tenant_id = static_cast<TenantId>(i);
    auto shard = BuildServingShard(base_config_, model, spec, &loop_);
    if (!shard.ok()) return shard.status();
    hosts_[i] = std::move(shard).value();
  }
  return Status::Ok();
}

Status ClusterSimulation::InstallFaultPlan(const FaultPlan& plan, uint64_t seed) {
  if (sharded_ != nullptr) return sharded_->InstallFaultPlan(plan, seed);
  // One injector on the one loop serves the devices and every link; the
  // previous one is released only after nothing points at it.
  auto injector = std::make_unique<FaultInjector>(plan, &loop_, seed);
  stack_->InstallFaultInjector(injector.get());
  for (size_t d = 0; d < links_.size(); ++d) {
    links_[d]->set_fault_injector(injector.get(), static_cast<int>(d));
  }
  injector_ = std::move(injector);
  return Status::Ok();
}

FabricLinkStats ClusterSimulation::FabricTotals() const {
  FabricLinkStats totals;
  for (const auto& link : links_) totals += link->stats();
  return totals;
}

DisaggregatedRunReport ClusterSimulation::RunDisaggregated(double total_qps,
                                                           uint64_t num_queries) {
  assert(total_qps > 0);
  if (sharded_ != nullptr) return sharded_->Run(total_qps, num_queries);
  if (hosts_[0].store == nullptr) return {};
  const size_t n = hosts_.size();
  const double qps_each = total_qps / static_cast<double>(n);
  const uint64_t queries_each = num_queries / n;

  std::vector<RunMeter> meters;
  std::vector<ArrivalParticipant> participants;
  meters.reserve(n);
  participants.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    meters.emplace_back(hosts_[i]);
    participants.push_back(
        hosts_[i].Participant(ArrivalSeed(FleetHostSeed(base_config_.seed, i))));
  }
  const StackCounters stack0 = StackCounters::Of(*stack_);
  const FabricLinkStats fab0 = FabricTotals();

  // ---- Interleave every host's arrivals; the router redistributes ----
  const SimTime t_begin = loop_.Now();
  const std::vector<ArrivalStats> states = RunInterleavedArrivals(
      loop_, participants, qps_each, queries_each,
      [this](size_t source, const Query& q) { return RouteTarget(source, q.user); });
  const SimDuration span = loop_.Now() - t_begin;

  std::vector<DisaggregatedHostReport> hosts(n);
  Bytes sm_logical = 0;
  for (size_t i = 0; i < n; ++i) {
    hosts[i].run = meters[i].Report(states[i], qps_each, span);
    hosts[i].share = meters[i].share();
    hosts[i].throttle_queue_time = meters[i].throttle_queue_time();
    sm_logical += hosts_[i].store->sm_used_bytes();
  }
  return FoldDisaggregatedRun(std::move(hosts), sm_logical, stack_->sm_used_bytes(),
                              StackCounters::Of(*stack_).Since(stack0),
                              FabricTotals().Since(fab0));
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
