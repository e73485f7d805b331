#include "serving/sharded_cluster.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

#include "common/rng.h"
#include "fault/replication_manager.h"

namespace sdm {

ShardedClusterRuntime::ShardedClusterRuntime(size_t num_hosts,
                                             const HostSimConfig& host_config,
                                             RoutingPolicy policy, size_t num_shards)
    : base_config_(host_config),
      router_(num_hosts, policy, host_config.seed ^ 0xc1u),
      runtime_(num_shards) {
  assert(num_hosts >= 1);
  assert(num_shards >= 2);

  const size_t device_lp = runtime_.AddProcess();
  assert(device_lp == kDeviceLp);
  (void)device_lp;

  if (base_config_.tuning.obs.enabled()) {
    // One instance per LP so recording never crosses a thread boundary;
    // Merged*Json folds them back into one document at export time.
    obs_.resize(1 + num_hosts);
    for (auto& o : obs_) o = std::make_unique<Observability>(base_config_.tuning.obs);
  }

  // Device stack: configured exactly like the single loop's (same specs,
  // tuning, seed — so NvmeDevice seeds match bit-for-bit).
  SharedDeviceConfig dcfg = DeviceStackConfig(base_config_, base_config_.seed);
  if (!obs_.empty()) {
    dcfg.obs = obs_[kDeviceLp].get();
    dcfg.obs_prefix = "svc/";
  }
  stack_ = std::make_unique<SharedDeviceService>(std::move(dcfg),
                                                 &runtime_.loop(kDeviceLp));
  endpoint_ = std::make_unique<ShardDeviceEndpoint>(stack_.get(), num_hosts);

  const FabricLinkConfig lcfg = FabricLinkFor(base_config_.tuning);

  const size_t ports = stack_->device_count();
  hosts_.resize(num_hosts);
  response_links_.reserve(num_hosts * ports);
  for (size_t i = 0; i < num_hosts; ++i) {
    HostShard& h = hosts_[i];
    const size_t host_lp = runtime_.AddProcess();
    assert(host_lp == 1 + i);

    char name[32];
    std::snprintf(name, sizeof(name), "host-%zu", i);
    h.stack_id = stack_->RegisterTenant(name, TenantClass::kForeground);
    h.channel = std::make_unique<HostChannel>(this, i);

    // Request direction lives host-side, response direction device-side:
    // each shard owns the busy/queue state of the direction it transmits
    // on, and arrivals cross shards through the runtime's mailboxes.
    for (size_t p = 0; p < ports; ++p) {
      auto req = std::make_unique<FabricLink>(lcfg, &runtime_.loop(host_lp));
      req->set_remote_delivery([this, host_lp](SimTime at, EventLoop::Callback cb) {
        runtime_.Post(host_lp, kDeviceLp, at, std::move(cb));
      });
      if (!obs_.empty()) {
        // Each direction records on the LP that transmits on it.
        req->set_obs(obs_[host_lp].get(),
                     "host" + std::to_string(i) + "/dev" + std::to_string(p) + "/");
      }
      h.request_links.push_back(std::move(req));

      auto resp = std::make_unique<FabricLink>(lcfg, &runtime_.loop(kDeviceLp));
      resp->set_remote_delivery([this, host_lp](SimTime at, EventLoop::Callback cb) {
        runtime_.Post(kDeviceLp, host_lp, at, std::move(cb));
      });
      if (!obs_.empty()) {
        resp->set_obs(obs_[kDeviceLp].get(), "svc/host" + std::to_string(i) +
                                                 "/dev" + std::to_string(p) + "/");
      }
      response_links_.push_back(std::move(resp));
    }
  }
}

Status ShardedClusterRuntime::LoadModel(const ModelConfig& model) {
  if (Status s = base_config_.tuning.ValidateForDisaggregated(); !s.ok()) return s;
  if (base_config_.tuning.fabric_latency <= SimDuration(0)) {
    return FailedPreconditionError(
        "sharded disaggregated mode needs fabric_latency > 0: the one-way "
        "latency is the conservative lookahead (use num_shards=1 for "
        "instant-fabric runs)");
  }
  if (stack_->device_count() == 0) {
    return FailedPreconditionError("disaggregated cluster needs a host spec with SSDs");
  }
  if (loaded_) return FailedPreconditionError("model already loaded");

  for (size_t i = 0; i < hosts_.size(); ++i) {
    HostShard& h = hosts_[i];

    // Host-side slice of the device service: per-host engines, readers,
    // schedulers, throttle, and BufferArena; doorbells ride h.channel.
    SharedDeviceConfig slice_cfg;
    slice_cfg.tuning = base_config_.tuning;
    slice_cfg.seed = base_config_.seed ^ Mix64(i + 0x51ce);
    slice_cfg.remote.stack = stack_.get();
    slice_cfg.remote.channel = h.channel.get();
    slice_cfg.remote.tenant = h.stack_id;
    if (!obs_.empty()) {
      slice_cfg.obs = obs_[1 + i].get();
      slice_cfg.obs_prefix = "host" + std::to_string(i) + "/";
    }
    h.slice = std::make_unique<SharedDeviceService>(std::move(slice_cfg),
                                                    &runtime_.loop(1 + i));
    const TenantId local_id =
        h.slice->RegisterTenant(stack_->tenant_name(h.stack_id),
                                TenantClass::kForeground);

    // Store / loader / engine / workload: the single-loop path's exact
    // construction and seed derivations, per host LP.
    ShardSpec spec =
        DisaggregatedHostSpec(base_config_, i, obs_.empty() ? nullptr : obs_[1 + i].get());
    spec.shared_device = h.slice.get();
    spec.tenant_id = local_id;
    auto shard = BuildServingShard(base_config_, model, spec, &runtime_.loop(1 + i));
    if (!shard.ok()) return shard.status();
    h.shard = std::move(shard).value();

    // Self-healing control plane: health is observed HOST-side (the slice's
    // monitor scores this host's completions), but re-replication runs on
    // the device shard, which owns the media. A sickness edge crosses the
    // fabric as a control message — one lookahead-respecting post, like any
    // doorbell.
    if (base_config_.tuning.enable_replication) {
      const size_t host_lp = 1 + i;
      h.slice->health().SetSickTransitionListener([this, host_lp](size_t endpoint) {
        runtime_.Post(host_lp, kDeviceLp,
                      runtime_.loop(host_lp).Now() + base_config_.tuning.fabric_latency,
                      [this, endpoint] {
                        stack_->replication()->OnEndpointSick(endpoint);
                      });
      });
    }
  }

  // Published replica routes propagate back to every host slice the same
  // way (device LP -> host LPs), so failover decisions stay shard-local.
  if (ReplicationManager* repl = stack_->replication(); repl != nullptr) {
    repl->SetPublishHook([this](uint64_t id, SharedDeviceService::ReplicaLocation loc) {
      for (size_t i = 0; i < hosts_.size(); ++i) {
        runtime_.Post(kDeviceLp, 1 + i,
                      runtime_.loop(kDeviceLp).Now() + base_config_.tuning.fabric_latency,
                      [this, i, id, loc] { hosts_[i].slice->AddReplicaRoute(id, loc); });
      }
    });
  }
  loaded_ = true;
  return Status::Ok();
}

Status ShardedClusterRuntime::InstallFaultPlan(const FaultPlan& plan, uint64_t seed) {
  for (const FaultWindow& w : plan.windows) {
    if (w.kind == FaultKind::kFabricDrop) {
      return FailedPreconditionError(
          "fabric-drop windows draw per-transfer RNG on per-shard links and "
          "cannot replay deterministically across shard counts; run drop "
          "experiments with num_shards=1");
    }
  }
  // Device windows interpret on the device shard's clock; every host gets a
  // CLONE for its request links' partition deferral — a deterministic plan
  // scan, so clones agree on heal times without sharing state.
  device_injector_ = std::make_unique<FaultInjector>(plan, &runtime_.loop(kDeviceLp), seed);
  stack_->InstallFaultInjector(device_injector_.get());
  const size_t ports = stack_->device_count();
  for (size_t i = 0; i < hosts_.size(); ++i) {
    for (size_t p = 0; p < ports; ++p) {
      response_links_[i * ports + p]->set_fault_injector(device_injector_.get(),
                                                         static_cast<int>(p));
    }
    hosts_[i].injector =
        std::make_unique<FaultInjector>(plan, &runtime_.loop(1 + i), seed);
    for (size_t p = 0; p < ports; ++p) {
      hosts_[i].request_links[p]->set_fault_injector(hosts_[i].injector.get(),
                                                     static_cast<int>(p));
    }
  }
  return Status::Ok();
}

void ShardedClusterRuntime::Doorbell(size_t host, size_t port,
                                     std::vector<RemoteReadOp> ops) {
  // On host `host`'s loop. Package the SQEs for the endpoint, then ring:
  // one request transfer carries the whole doorbell (64B per SQE), and its
  // delivery — posted cross-shard by the link's remote delivery hook —
  // lands on the device loop at arrival time.
  const size_t ports = stack_->device_count();
  std::vector<ShardDeviceEndpoint::Op> eops;
  eops.reserve(ops.size());
  for (RemoteReadOp& op : ops) {
    ShardDeviceEndpoint::Op e;
    e.offset = op.offset;
    e.length = op.length;
    e.sub_block = op.sub_block;
    e.payload_bytes = op.payload_bytes;
    e.host = host;
    // Runs on the DEVICE loop at completion: pay the response-direction
    // fabric timing and hand the payload back to the host shard. The
    // response transfer is byte-accounted even on error (empty payload),
    // like the single-loop WrapFabricCompletion path.
    e.respond = [this, link = response_links_[host * ports + port].get(),
                 payload_bytes = op.payload_bytes, oc = std::move(op.on_complete)](
                    Status status, std::vector<uint8_t> payload) mutable {
      link->Response(payload_bytes,
                     [oc = std::move(oc), status = std::move(status),
                      payload = std::move(payload)]() mutable {
                       oc(std::move(status), std::span<const uint8_t>(payload));
                     });
    };
    eops.push_back(std::move(e));
  }
  // Size the transfer BEFORE the call: argument evaluation order is
  // unspecified, and the lambda capture moves `eops` out.
  const Bytes doorbell_bytes = kFabricSqeBytes * static_cast<Bytes>(eops.size());
  hosts_[host].request_links[port]->Request(
      doorbell_bytes,
      [endpoint = endpoint_.get(), port, eops = std::move(eops)]() mutable {
        endpoint->OnDoorbell(port, std::move(eops));
      });
}

size_t ShardedClusterRuntime::RouteTarget(size_t source, UserId user) const {
  if (router_.policy() == RoutingPolicy::kLocal) return source % hosts_.size();
  return router_.Route(user);
}

StackCounters ShardedClusterRuntime::StackTotals() {
  // Scheduler effectiveness lives host-side in sharded mode — plus the
  // device stack's own schedulers, idle except for the self-healing layer's
  // re-replication copy chunks riding their background lanes (included so
  // the single-loop oracle sees the same flush/background totals).
  StackCounters totals = StackCounters::Of(*stack_);
  for (const HostShard& h : hosts_) {
    if (h.slice != nullptr) totals.io += h.slice->cross_request_io_stats();
  }
  return totals;
}

FabricLinkStats ShardedClusterRuntime::FabricTotals() const {
  FabricLinkStats totals;
  for (const HostShard& h : hosts_) {
    for (const auto& link : h.request_links) totals += link->stats();
  }
  for (const auto& link : response_links_) totals += link->stats();
  return totals;
}

std::string ShardedClusterRuntime::ObsMetricsJson() {
  if (obs_.empty()) return "{}";
  std::vector<Observability*> all;
  all.reserve(obs_.size());
  for (auto& o : obs_) {
    o->Finalize();
    all.push_back(o.get());
  }
  return Observability::MergedMetricsJson(all);
}

std::string ShardedClusterRuntime::ObsTraceJson() {
  if (obs_.empty()) return "{}";
  std::vector<Observability*> all;
  all.reserve(obs_.size());
  for (auto& o : obs_) all.push_back(o.get());
  return Observability::MergedTraceJson(all);
}

std::string ShardedClusterRuntime::ObsSloJson() {
  if (obs_.empty()) return "{}";
  std::vector<Observability*> all;
  all.reserve(obs_.size());
  for (auto& o : obs_) {
    o->Finalize();
    all.push_back(o.get());
  }
  return Observability::MergedSloJson(all);
}

DisaggregatedRunReport ShardedClusterRuntime::Run(double total_qps,
                                                  uint64_t num_queries) {
  assert(total_qps > 0);
  if (!loaded_) return {};
  const size_t n = hosts_.size();
  const double qps_each = total_qps / static_cast<double>(n);
  const uint64_t queries_each = num_queries / n;

  std::vector<RunMeter> meters;
  meters.reserve(n);
  // Cross-host joins happen at the device endpoint in sharded mode (the
  // slice scheduler only sees its own host); their start-of-run counts.
  std::vector<std::pair<uint64_t, Bytes>> xhost0(n);
  for (size_t i = 0; i < n; ++i) {
    meters.emplace_back(hosts_[i].shard);
    xhost0[i] = {endpoint_->cross_host_hits(i), endpoint_->cross_host_bytes_saved(i)};
  }
  const StackCounters stack0 = StackTotals();
  const FabricLinkStats fab0 = FabricTotals();

  // ---- Arrival precomputation ----
  // The single loop executes arrival events in (time, schedule-seq) order,
  // with the participant-major scheduling pass defining seq; workload and
  // router draws happen inside those events, in exactly that order, and
  // nothing else touches either RNG. Replaying the draws in a sequential
  // pre-pass over the SORTED arrival times therefore reproduces the
  // single-loop query stream bit-for-bit — and leaves the run itself free
  // of any cross-host RNG coupling.
  SimTime t0{0};
  for (size_t lp = 0; lp < runtime_.process_count(); ++lp) {
    t0 = std::max(t0, runtime_.loop(lp).Now());
  }
  struct Planned {
    SimTime at;
    uint32_t source;
  };
  std::vector<Planned> plan;
  plan.reserve(n * queries_each);
  for (size_t i = 0; i < n; ++i) {
    Rng arrivals(ArrivalSeed(FleetHostSeed(base_config_.seed, i)));
    SimTime next_arrival = t0;
    for (uint64_t q = 0; q < queries_each; ++q) {
      next_arrival += Seconds(arrivals.NextExponential(1.0 / qps_each));
      plan.push_back(Planned{next_arrival, static_cast<uint32_t>(i)});
    }
  }
  // stable_sort keeps the participant-major order on time ties — the
  // single loop's FIFO tie-break for its scheduling pass.
  std::stable_sort(plan.begin(), plan.end(),
                   [](const Planned& a, const Planned& b) { return a.at < b.at; });
  for (HostShard& h : hosts_) h.stats = ArrivalStats();
  for (const Planned& p : plan) {
    const Query query = hosts_[p.source].shard.workload->Next();
    const size_t target = RouteTarget(p.source, query.user);
    runtime_.loop(1 + target).ScheduleAt(p.at, [this, target, query] {
      HostShard& h = hosts_[target];
      ++h.stats.served;
      h.shard.engine->Submit(query, [&st = h.stats](Status status, const QueryTrace& trace) {
        st.Record(status, trace);
      });
    });
  }

  // ---- The parallel run ----
  runtime_.Run(base_config_.tuning.fabric_latency);

  SimTime t_end = t0;
  for (size_t lp = 0; lp < runtime_.process_count(); ++lp) {
    t_end = std::max(t_end, runtime_.loop(lp).last_event_time());
  }

  std::vector<DisaggregatedHostReport> reports(n);
  Bytes sm_logical = 0;
  for (size_t i = 0; i < n; ++i) {
    DisaggregatedHostReport& hr = reports[i];
    hr.run = meters[i].Report(hosts_[i].stats, qps_each, t_end - t0);
    hr.share = meters[i].share();
    // Overlay the endpoint's cross-host ledger so the fields keep their
    // single-loop meaning.
    hr.share.cross_tenant_hits = endpoint_->cross_host_hits(i) - xhost0[i].first;
    hr.share.cross_tenant_bytes_saved = endpoint_->cross_host_bytes_saved(i) - xhost0[i].second;
    hr.throttle_queue_time = meters[i].throttle_queue_time();
    sm_logical += hosts_[i].shard.store->sm_used_bytes();
  }
  return FoldDisaggregatedRun(std::move(reports), sm_logical, stack_->sm_used_bytes(),
                              StackTotals().Since(stack0), FabricTotals().Since(fab0));
}

}  // namespace sdm
