// ServingShard — one serving participant: an SdmStore, the InferenceEngine
// over it, and the QueryGenerator that feeds it.
//
// Every harness that serves queries builds its participants here:
// HostSimulation (one shard owning a private device stack), MultiTenantHost's
// shared mode (one shard per tenant on a SharedDeviceService),
// ClusterSimulation's single loop (one shard per host on a fabric-attached
// stack) and ShardedClusterRuntime (one shard per host LP on its slice of
// the device shard). The builder owns the one derivation of the engine's
// InferenceConfig from the host spec, the seed helpers below are the one
// derivation of per-shard seeds, and the stack helpers the one derivation of
// a shared device stack and its fabric ports, so the four harnesses serve
// identical query streams wherever their configurations agree.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/rng.h"
#include "core/model_loader.h"
#include "fabric/fabric_link.h"
#include "serving/arrival_loop.h"
#include "serving/inference_engine.h"
#include "tenant/shared_device_service.h"
#include "tenant/tenant.h"
#include "trace/trace_gen.h"

namespace sdm {

struct HostSimConfig;

/// Seed of shard `index`'s store (from the host seed) or query stream (from
/// the workload seed).
[[nodiscard]] constexpr uint64_t ShardSeed(uint64_t base, size_t index) {
  return base ^ Mix64(0x7e0a + index);
}

/// Host `index`'s own seed within a fleet whose base seed is `base`.
[[nodiscard]] constexpr uint64_t FleetHostSeed(uint64_t base, size_t index) {
  return base ^ Mix64(index + 1);
}

/// Poisson arrival seed of a host seeded with `host_seed`.
[[nodiscard]] constexpr uint64_t ArrivalSeed(uint64_t host_seed) { return host_seed ^ 0xa11e; }

/// A shared device stack over `host`'s SSDs (HostSimConfig::sm_backing_per_device
/// each) with the host's tuning, seeded with `seed`. Observability is left
/// off; the caller attaches its own.
[[nodiscard]] SharedDeviceConfig DeviceStackConfig(const HostSimConfig& host, uint64_t seed);

/// One fabric port shaped by the tuning's fabric knobs.
[[nodiscard]] FabricLinkConfig FabricLinkFor(const TuningConfig& tuning);

/// What differs between shards of one harness. Everything else — tuning,
/// loader options, host CPU and accelerator — comes from the HostSimConfig.
struct ShardSpec {
  Bytes fm_capacity = 0;
  uint64_t store_seed = 0;
  uint64_t workload_seed = 0;
  /// Device stack to attach to as tenant `tenant_id`; null builds a private
  /// stack from the host's SSDs (HostSimConfig::sm_backing_per_device each).
  SharedDeviceService* shared_device = nullptr;
  TenantId tenant_id = 0;
  TenantClass tenant_class = TenantClass::kForeground;
  Observability* obs = nullptr;  ///< null = observability off
  std::string obs_prefix;
};

struct ServingShard {
  std::unique_ptr<SdmStore> store;
  std::unique_ptr<InferenceEngine> engine;
  std::unique_ptr<QueryGenerator> workload;
  LoadReport load_report;
  int cores = 0;  ///< the host's usable cores (Eq. 5's compute denominator)

  /// FM the shard occupies: direct tables, mapping tensors, row cache.
  [[nodiscard]] Bytes fm_used() const;

  /// This shard as an arrival participant drawing from its own workload.
  [[nodiscard]] ArrivalParticipant Participant(uint64_t arrival_seed) const;
};

/// Builds the store on `loop`, loads `model` into it and builds the engine
/// and workload. The engine's InferenceConfig is `host.inference` with the
/// host's accelerator and dense rate; an unset admission limit defaults to
/// one query per core, so Eq. 5's compute bound emerges from the simulation.
[[nodiscard]] Result<ServingShard> BuildServingShard(const HostSimConfig& host,
                                                     const ModelConfig& model,
                                                     const ShardSpec& spec, EventLoop* loop);

}  // namespace sdm
