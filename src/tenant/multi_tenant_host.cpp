#include "tenant/multi_tenant_host.h"

#include <cassert>
#include <cstdio>

#include "common/kv_format.h"
#include "serving/arrival_loop.h"
#include "serving/run_meter.h"

namespace sdm {

MultiTenantHost::MultiTenantHost(HostSimConfig base_config, uint64_t seed,
                                 bool shared_device)
    : base_config_(std::move(base_config)), seed_(seed), shared_mode_(shared_device) {}

MultiTenantHost::~MultiTenantHost() = default;

SdmStore& MultiTenantHost::tenant_store(size_t i) {
  return shared_mode_ ? *shards_[i].store : isolated_[i].sim->store();
}

InferenceEngine& MultiTenantHost::tenant_engine(size_t i) {
  return shared_mode_ ? *shards_[i].engine : isolated_[i].sim->engine();
}

Status MultiTenantHost::AddTenant(const ModelConfig& model, Bytes fm_share,
                                  TenantClass cls) {
  // Tenant i's seeds are the same in both modes, so an isolated-vs-shared
  // sweep serves the same per-tenant query streams.
  if (!shared_mode_) {
    HostSimConfig cfg = base_config_;
    cfg.fm_capacity = fm_share;
    cfg.seed = ShardSeed(seed_, isolated_.size());
    cfg.workload.seed = ShardSeed(base_config_.workload.seed, isolated_.size());
    IsolatedTenant t;
    t.model = model;
    t.cls = cls;
    t.sim = std::make_unique<HostSimulation>(cfg);
    if (Status s = t.sim->LoadModel(model); !s.ok()) return s;
    isolated_.push_back(std::move(t));
    return Status::Ok();
  }

  // ---- Shared mode: a real shard on the common device stack ----
  if (Status s = base_config_.tuning.ValidateForSharedDevice(); !s.ok()) return s;
  if (service_ == nullptr) {
    SharedDeviceConfig dcfg;
    for (const auto& ssd : base_config_.host.ssds) {
      dcfg.sm_specs.push_back(ssd);
      dcfg.sm_backing_bytes.push_back(base_config_.sm_backing_per_device);
    }
    if (dcfg.sm_specs.empty()) {
      return FailedPreconditionError("shared-device multi-tenancy needs a host with SSDs");
    }
    dcfg.tuning = base_config_.tuning;
    dcfg.seed = seed_;
    if (base_config_.tuning.obs.enabled()) {
      obs_ = std::make_unique<Observability>(base_config_.tuning.obs);
      dcfg.obs = obs_.get();
      dcfg.obs_prefix = "svc/";
    }
    service_ = std::make_unique<SharedDeviceService>(std::move(dcfg), &loop_);
  }

  const size_t index = shards_.size();
  ShardSpec spec;
  spec.fm_capacity = fm_share;
  spec.store_seed = ShardSeed(seed_, index);
  spec.workload_seed = ShardSeed(base_config_.workload.seed, index);
  spec.shared_device = service_.get();
  spec.tenant_id = service_->RegisterTenant(model.name, cls);
  spec.tenant_class = cls;
  if (obs_ != nullptr) {
    spec.obs = obs_.get();
    spec.obs_prefix = "tenant" + std::to_string(index) + "/";
  }
  auto shard = BuildServingShard(base_config_, model, spec, &loop_);
  if (!shard.ok()) return shard.status();
  shards_.push_back(std::move(shard).value());
  return Status::Ok();
}

MultiTenantReport MultiTenantHost::Run(double qps_per_tenant,
                                       uint64_t queries_per_tenant) {
  return shared_mode_ ? RunShared(qps_per_tenant, queries_per_tenant)
                      : RunIsolated(qps_per_tenant, queries_per_tenant);
}

MultiTenantReport MultiTenantHost::RunIsolated(double qps, uint64_t queries) {
  MultiTenantReport report;
  report.fm_capacity = base_config_.fm_capacity;
  for (auto& t : isolated_) {
    TenantReport tr;
    tr.model_name = t.model.name;
    tr.cls = t.cls;
    tr.run = t.sim->Run(qps, queries);
    tr.fm_used = t.sim->shard().fm_used();
    tr.sm_used = t.sim->store().sm_used_bytes();
    tr.throttle_queue_time = t.sim->store().throttle().QueueTime(0);
    report.fm_total += tr.fm_used;
    report.sm_logical_bytes += tr.sm_used;
    report.tenants.push_back(std::move(tr));
  }
  report.sm_unique_bytes = report.sm_logical_bytes;  // isolation: no dedup
  // Without SM every tenant's SM bytes would need FM instead.
  const Bytes fm_needed_without_sm = report.fm_total + report.sm_logical_bytes;
  report.fits_in_fm = fm_needed_without_sm <= report.fm_capacity;
  return report;
}

MultiTenantReport MultiTenantHost::RunShared(double qps, uint64_t queries) {
  assert(qps > 0);
  MultiTenantReport report;
  report.shared_device = true;
  report.fm_capacity = base_config_.fm_capacity;
  if (shards_.empty()) return report;

  // ---- Interleave every tenant's open-loop Poisson arrivals ----
  std::vector<RunMeter> meters;
  std::vector<ArrivalParticipant> participants;
  meters.reserve(shards_.size());
  participants.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    meters.emplace_back(shards_[i]);
    participants.push_back(shards_[i].Participant(ArrivalSeed(FleetHostSeed(seed_, i))));
  }
  const StackCounters stack0 = StackCounters::Of(*service_);
  const SimTime t_begin = loop_.Now();
  const std::vector<ArrivalStats> states =
      RunInterleavedArrivals(loop_, participants, qps, queries);
  const SimDuration span = loop_.Now() - t_begin;

  for (size_t i = 0; i < shards_.size(); ++i) {
    const ServingShard& shard = shards_[i];
    TenantReport tr;
    tr.model_name = shard.engine->model().name;
    tr.cls = shard.store->tenant_class();
    tr.run = meters[i].Report(states[i], qps, span);
    tr.share = meters[i].share();
    tr.throttle_queue_time = meters[i].throttle_queue_time();
    tr.fm_used = shard.fm_used();
    tr.sm_used = shard.store->sm_used_bytes();
    report.fm_total += tr.fm_used;
    report.sm_logical_bytes += tr.sm_used;
    report.tenants.push_back(std::move(tr));
  }

  report.sm_unique_bytes = service_->sm_used_bytes();
  const StackCounters stack = StackCounters::Of(*service_).Since(stack0);
  report.sm_device_reads = stack.device_reads;
  report.io = stack.io;

  const Bytes fm_needed_without_sm = report.fm_total + report.sm_logical_bytes;
  report.fits_in_fm = fm_needed_without_sm <= report.fm_capacity;
  return report;
}

std::string TenantReport::Summary() const {
  KvFormatter f;
  f.Raw(model_name)
      .Raw(std::string("[") + ToString(cls) + "]")
      .Kv("qps", "%.0f/%.0f", run.achieved_qps, run.offered_qps)
      .Kv("p95", "%.2fms", run.p95.millis())
      .Kv("p99", "%.2fms", run.p99.millis())
      .Kv("hit", "%.1f%%", run.row_cache_hit_rate * 100)
      .Kv("sf", "%llu", static_cast<unsigned long long>(share.singleflight_hits))
      .Kv("xsf", "%llu", static_cast<unsigned long long>(share.cross_tenant_hits))
      .Kv("fg", "%lluKiB", static_cast<unsigned long long>(share.demand_bytes / kKiB))
      .Kv("bg", "%lluKiB", static_cast<unsigned long long>(share.background_bytes / kKiB))
      .Kv("tq", "%.0fus", throttle_queue_time.micros());
  return f.str();
}

std::string MultiTenantHost::ObsMetricsJson() {
  if (obs_ == nullptr) return "{}";
  obs_->Finalize();
  return obs_->MetricsJson();
}

std::string MultiTenantHost::ObsTraceJson() {
  if (obs_ == nullptr) return "{}";
  obs_->Finalize();
  return obs_->TraceJson();
}

std::string MultiTenantHost::ObsSloJson() {
  if (obs_ == nullptr) return "{}";
  obs_->Finalize();
  return obs_->SloJson();
}

std::string MultiTenantReport::Summary() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "tenants=%zu mode=%s reads=%llu sf=%llu xmerge=%llu bg=%llu(parked %llu, "
      "promoted %llu) sm=%.1f/%.1fMiB dedup=%.1fMiB occ=%.1f",
      tenants.size(), shared_device ? "shared" : "isolated",
      static_cast<unsigned long long>(sm_device_reads),
      static_cast<unsigned long long>(io.singleflight_hits),
      static_cast<unsigned long long>(io.cross_request_merges),
      static_cast<unsigned long long>(io.background_reads),
      static_cast<unsigned long long>(io.background_parked),
      static_cast<unsigned long long>(io.background_promoted),
      AsMiB(sm_unique_bytes), AsMiB(sm_logical_bytes),
      AsMiB(sm_logical_bytes - sm_unique_bytes), io.BatchOccupancy());
  return buf;
}

}  // namespace sdm
