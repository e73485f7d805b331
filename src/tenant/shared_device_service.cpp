#include "tenant/shared_device_service.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "common/rng.h"
#include "fault/fault_injector.h"
#include "fault/replication_manager.h"

namespace sdm {

namespace {

/// FNV-1a over the table image — the dedup registry's content fingerprint.
/// Collisions are guarded by the (name, size) key components; tables here
/// are deterministic generator output, not adversarial input.
uint64_t ContentHash(std::span<const uint8_t> bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

SharedDeviceService::SharedDeviceService(SharedDeviceConfig config, EventLoop* loop)
    : config_(std::move(config)),
      loop_(loop),
      throttle_(config_.tuning.throttle, loop) {
  assert(loop != nullptr);
  assert(config_.sm_specs.size() == config_.sm_backing_bytes.size());
  assert(!remote() || config_.sm_specs.empty());
  assert(!remote() || config_.remote.channel != nullptr);

  Rng rng(config_.seed);
  const size_t ports =
      remote() ? config_.remote.stack->device_count() : config_.sm_specs.size();
  remote_ports_ = remote() ? ports : 0;
  for (size_t i = 0; i < ports; ++i) {
    if (!remote()) {
      DeviceSpec spec = config_.sm_specs[i];
      if (!config_.tuning.sub_block_reads) {
        // Tuning knob: force the plain block path even on capable devices.
        spec.supports_sub_block = false;
      }
      sm_.push_back(std::make_unique<NvmeDevice>(spec, config_.sm_backing_bytes[i],
                                                 loop_, rng.Next()));
      // Per-4KB-block checksums, stamped at write and verified at
      // bounce-buffer fill (self-healing integrity layer). Off = byte-
      // identical device behaviour.
      if (config_.tuning.enable_checksums) sm_.back()->set_checksums(true);
    }
    IoEngineConfig ecfg;
    ecfg.queue_depth = config_.tuning.io_queue_depth;
    ecfg.completion_mode = config_.tuning.completion_mode;
    if (remote()) {
      // Host-side slice: the engine's "device" is the remote stack's — the
      // immutable spec source for readers — but submissions ride the
      // channel to the device shard instead of touching it.
      engines_.push_back(std::make_unique<IoEngine>(&config_.remote.stack->device(i),
                                                    loop_, ecfg));
      engines_.back()->set_remote_channel(config_.remote.channel, i);
    } else {
      engines_.push_back(std::make_unique<IoEngine>(sm_.back().get(), loop_, ecfg));
    }
    DirectReaderConfig rcfg;
    rcfg.sub_block = config_.tuning.sub_block_reads;
    rcfg.retry_backoff_base = config_.tuning.retry_backoff_base;
    readers_.push_back(
        std::make_unique<DirectIoReader>(engines_.back().get(), rcfg, &buffer_arena_));
    BatchSchedulerConfig bcfg;
    // The per-row ablation (coalesce_io = false) rides the same scheduler in
    // bypass mode: no merging, no single-flight, one doorbell per lookup.
    bcfg.cross_request =
        config_.tuning.cross_request_batching && config_.tuning.coalesce_io;
    bcfg.max_batch_sqes = config_.tuning.max_batch_sqes;
    bcfg.max_batch_delay = config_.tuning.max_batch_delay;
    bcfg.max_coalesce_bytes = config_.tuning.max_coalesce_bytes;
    bcfg.coalesce_gap_bytes = config_.tuning.coalesce_gap_bytes;
    bcfg.prefetch_max_inflight_bytes = config_.tuning.prefetch_max_inflight_bytes;
    bcfg.background_max_inflight_bytes = config_.tuning.background_max_inflight_bytes;
    bcfg.background_flush_delay = config_.tuning.background_flush_delay;
    bcfg.io_deadline = config_.tuning.io_deadline;
    bcfg.hedge_latency_factor = config_.tuning.hedge_latency_factor;
    bcfg.hedge_min_samples = config_.tuning.hedge_min_samples;
    schedulers_.push_back(std::make_unique<BatchScheduler>(engines_.back().get(),
                                                           &buffer_arena_, loop_, bcfg));
    if (config_.obs != nullptr) {
      const std::string dev_name =
          config_.obs_prefix + "dev" + std::to_string(i) + "/";
      engines_.back()->set_obs(config_.obs, dev_name);
      schedulers_.back()->set_obs(config_.obs, dev_name);
    }
  }
  sm_used_.assign(sm_.size(), 0);

  HealthMonitorConfig hcfg;
  hcfg.enabled = config_.tuning.enable_health_monitor;
  hcfg.sick_threshold = config_.tuning.health_sick_threshold;
  hcfg.window = config_.tuning.health_window;
  hcfg.probe_interval = config_.tuning.health_probe_interval;
  health_ = std::make_unique<HealthMonitor>(hcfg, ports);
  if (config_.obs != nullptr) {
    health_->set_obs(config_.obs, loop_, config_.obs_prefix);
  }

  if (config_.tuning.enable_replication) {
    // Cross-replica hedging: a scheduler whose demand read crosses its p99
    // deadline may hedge onto the span's replica instead of re-queueing on
    // the (possibly sick) primary.
    for (size_t i = 0; i < schedulers_.size(); ++i) {
      schedulers_[i]->set_replica_peer(
          [this, i](Bytes begin, Bytes end)
              -> std::optional<BatchScheduler::ReplicaPeer> {
            const auto route = ReplicaRouteForSpan(i, begin, end);
            if (!route.has_value()) return std::nullopt;
            return BatchScheduler::ReplicaPeer{engines_[route->device].get(),
                                               route->shift};
          });
    }
    if (!remote()) {
      // The stack owns the devices, so it owns the re-replication engine;
      // sharded slices instead forward their sickness transitions to the
      // device shard's manager (src/serving wires that path).
      replication_ = std::make_unique<ReplicationManager>(this, loop_);
      if (config_.obs != nullptr) {
        replication_->set_obs(config_.obs, config_.obs_prefix);
      }
      health_->SetSickTransitionListener(
          [this](size_t endpoint) { replication_->OnEndpointSick(endpoint); });
    }
  }
}

SharedDeviceService::~SharedDeviceService() = default;

void SharedDeviceService::RecordExtentDemand(uint64_t id) {
  if (id == 0) return;
  if (auto it = extent_infos_.find(id); it != extent_infos_.end()) ++it->second.heat;
}

std::optional<SharedDeviceService::ReplicaRoute> SharedDeviceService::FindReplicaRoute(
    uint64_t id, size_t avoid_device) const {
  const auto it = extent_infos_.find(id);
  if (it == extent_infos_.end()) return std::nullopt;
  for (const ReplicaLocation& loc : it->second.replicas) {
    if (loc.device == avoid_device || health_->Sick(loc.device)) continue;
    return ReplicaRoute{loc.device, static_cast<int64_t>(loc.offset) -
                                        static_cast<int64_t>(it->second.offset)};
  }
  return std::nullopt;
}

void SharedDeviceService::AddReplicaRoute(uint64_t id, ReplicaLocation loc) {
  if (auto it = extent_infos_.find(id); it != extent_infos_.end()) {
    it->second.replicas.push_back(loc);
  }
}

std::vector<uint64_t> SharedDeviceService::HottestExtentsOn(size_t device,
                                                            size_t max) const {
  std::vector<std::pair<uint64_t, uint64_t>> heat_id;  // (heat, id)
  for (const auto& [id, info] : extent_infos_) {
    if (info.device != device || !info.replicas.empty()) continue;
    heat_id.emplace_back(info.heat, id);
  }
  std::sort(heat_id.begin(), heat_id.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<uint64_t> out;
  for (const auto& [heat, id] : heat_id) {
    if (out.size() >= max) break;
    out.push_back(id);
  }
  return out;
}

Result<size_t> SharedDeviceService::FindReplicaTarget(size_t source) const {
  std::optional<size_t> best;
  for (size_t i = 0; i < sm_.size(); ++i) {
    if (i == source || health_->Sick(i)) continue;
    if (!best.has_value() || sm_used_[i] < sm_used_[*best]) best = i;
  }
  if (!best.has_value()) {
    return ResourceExhaustedError("no healthy replica target device available");
  }
  return *best;
}

Result<SharedDeviceService::ReplicaLocation> SharedDeviceService::AllocateReplica(
    uint64_t id, size_t target) {
  assert(!remote() && "replica space lives on the device-owning stack");
  const auto it = extent_infos_.find(id);
  if (it == extent_infos_.end()) return NotFoundError("unknown extent id");
  const ExtentInfo& info = it->second;
  // Round the bump cursor up to the next offset congruent with the primary
  // offset mod kBlockSize: routed spans then shift by a whole number of
  // blocks and keep their block geometry (and checksum block boundaries).
  const Bytes base = sm_used_[target];
  const Bytes want = info.offset % kBlockSize;
  const Bytes off = base + (want + kBlockSize - base % kBlockSize) % kBlockSize;
  if (off + info.size > sm_[target]->backing_size()) {
    return ResourceExhaustedError("replica target device over-committed");
  }
  sm_used_[target] = off + info.size;
  return ReplicaLocation{target, off};
}

std::optional<SharedDeviceService::ExtentSpan> SharedDeviceService::ExtentInfoFor(
    uint64_t id) const {
  const auto it = extent_infos_.find(id);
  if (it == extent_infos_.end()) return std::nullopt;
  return ExtentSpan{it->second.device, it->second.offset, it->second.size};
}

std::optional<SharedDeviceService::ReplicaRoute> SharedDeviceService::ReplicaRouteForSpan(
    size_t device, Bytes begin, Bytes end) const {
  for (const auto& [id, info] : extent_infos_) {
    if (info.device != device || info.replicas.empty()) continue;
    if (begin < info.offset || end > info.offset + info.size) continue;
    return FindReplicaRoute(id, device);
  }
  return std::nullopt;
}

void SharedDeviceService::InstallFaultInjector(FaultInjector* injector) {
  for (size_t i = 0; i < sm_.size(); ++i) {
    sm_[i]->set_fault_injector(injector, static_cast<int>(i));
  }
}

TenantId SharedDeviceService::RegisterTenant(std::string name, TenantClass cls) {
  tenants_.push_back(Tenant{std::move(name), cls});
  return static_cast<TenantId>(tenants_.size() - 1);
}

Result<SharedDeviceService::Extent> SharedDeviceService::PlaceTable(
    TenantId tenant, const std::string& table_name, std::span<const uint8_t> bytes) {
  if (remote()) {
    // Host-side slice: the device shard's stack owns space and the dedup
    // registry; place there under this HOST's identity so replicas dedup
    // across hosts exactly like the single-loop path. Load-time only.
    (void)tenant;  // the local single-tenant id; the stack keys on the host
    auto placed =
        config_.remote.stack->PlaceTable(config_.remote.tenant, table_name, bytes);
    if (placed.ok() && placed.value().id != 0) {
      // Mirror the extent into this slice's private routing view (load-time
      // only); replica routes arrive later as cross-shard AddReplicaRoute
      // posts, and demand heat accrues here, never on the stack.
      const Extent& e = placed.value();
      extent_infos_.try_emplace(e.id,
                                ExtentInfo{e.device, e.offset, bytes.size(), 0, {}});
    }
    return placed;
  }
  if (sm_.empty()) return FailedPreconditionError("no SM devices configured");

  const ExtentKey key{table_name, bytes.size(), ContentHash(bytes)};
  if (auto it = extents_.find(key); it != extents_.end()) {
    // Cross-tenant dedup only: a tenant re-loading identical content (two
    // copies in one model) gets its own extent, matching what an
    // owned-device store would do.
    if (!it->second.owners.contains(tenant)) {
      it->second.owners.insert(tenant);
      dedup_saved_ += bytes.size();
      Extent ext = it->second.extent;
      ext.shared = true;
      ext.write_time = SimDuration{};
      SDM_LOG_INFO << "shared extent: tenant " << tenant << " attached to "
                   << table_name << " (" << AsMiB(bytes.size()) << " MiB deduped)";
      return ext;
    }
  }

  // Least-filled device gets the table (simple balance; tables are the
  // striping unit, as in the paper's two-SSD hosts).
  size_t best = 0;
  for (size_t i = 1; i < sm_.size(); ++i) {
    if (sm_used_[i] < sm_used_[best]) best = i;
  }
  if (sm_used_[best] + bytes.size() > sm_[best]->backing_size()) {
    return ResourceExhaustedError("SM device over-committed by table " + table_name);
  }
  Extent ext;
  ext.device = best;
  ext.offset = sm_used_[best];
  auto wrote = sm_[best]->Write(ext.offset, bytes);
  if (!wrote.ok()) return wrote.status();
  ext.write_time = wrote.value();
  ext.id = next_extent_id_++;
  extent_infos_.emplace(ext.id,
                        ExtentInfo{ext.device, ext.offset, bytes.size(), 0, {}});
  sm_used_[best] += bytes.size();
  // A same-tenant duplicate (owner re-placing an identical table) keeps its
  // fresh extent PRIVATE: the registry entry — and any co-tenants attached
  // to it — must not be clobbered.
  extents_.try_emplace(key, ExtentEntry{ext, {tenant}});
  return ext;
}

Bytes SharedDeviceService::sm_used_bytes() const {
  if (remote()) return config_.remote.stack->sm_used_bytes();
  Bytes total = 0;
  for (const Bytes b : sm_used_) total += b;
  return total;
}

CrossRequestIoStats SharedDeviceService::cross_request_io_stats() const {
  CrossRequestIoStats agg;
  for (const auto& s : schedulers_) agg += s->Snapshot();
  return agg;
}

TenantIoShare SharedDeviceService::tenant_io_share(TenantId id) const {
  TenantIoShare agg;
  for (const auto& s : schedulers_) agg += s->tenant_share(id);
  return agg;
}

}  // namespace sdm
