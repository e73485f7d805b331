// MultiTenantHost — co-locates several models on one simulated host
// (paper §5.3's capacity argument, now at IO granularity).
//
// Two modes:
//
//  - isolated (shared_device = false, the historical baseline): each
//    tenant is a full HostSimulation — own EventLoop, own SdmStore, own
//    devices. Tenants share nothing but the report; co-located traffic
//    can never single-flight across tenants. This is the "N independent
//    hosts squeezed into one chassis" model the paper argues against.
//
//  - shared (shared_device = true): ONE EventLoop, ONE SharedDeviceService.
//    Each tenant is a real shard — an SdmStore attached to the shared
//    device stack, with its own FM share, caches, and InferenceEngine —
//    and every tenant's Poisson arrivals interleave in virtual time, so
//    concurrent tenants' reads dedup / merge / single-flight in the shared
//    BatchSchedulers, identical table content dedups to one device extent,
//    and background-class tenants ride the scheduler's byte-budgeted
//    background lane (QoS: they cannot starve foreground p99).
//
// The report carries, per tenant, the fair-share ledger of the shared
// device: lane byte shares, single-flight hits served by other tenants'
// reads, and throttle queue time.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "serving/host.h"
#include "tenant/shared_device_service.h"
#include "tenant/tenant.h"

namespace sdm {

struct TenantReport {
  std::string model_name;
  TenantClass cls = TenantClass::kForeground;
  HostRunReport run;
  Bytes fm_used = 0;
  Bytes sm_used = 0;  ///< logical footprint (shared extents counted)

  /// Shared-device fair-share ledger, this run only (zeroes in isolated
  /// mode): single-flight hits, those riding a DIFFERENT tenant's read, and
  /// the bus bytes of the foreground- (demand_bytes) and background-lane
  /// SQEs this tenant owned.
  TenantIoShare share;
  SimDuration throttle_queue_time;  ///< virtual time queued for IO slots, this run only

  [[nodiscard]] std::string Summary() const;
};

struct MultiTenantReport {
  std::vector<TenantReport> tenants;
  Bytes fm_total = 0;
  Bytes fm_capacity = 0;
  bool fits_in_fm = false;  ///< would the tenant set fit without SM?
  bool shared_device = false;

  // ---- Shared-device accounting (zeroes in isolated mode) ----
  Bytes sm_logical_bytes = 0;  ///< sum of tenant footprints
  Bytes sm_unique_bytes = 0;   ///< device bytes after extent dedup
  CrossRequestIoStats io;      ///< scheduler effectiveness, this run only
  uint64_t sm_device_reads = 0;  ///< physical device reads, this run only

  [[nodiscard]] std::string Summary() const;
};

/// Co-locates several (typically experimental) models on one host spec.
/// Each tenant gets an SDM sized to its share; the report shows the DRAM
/// the host would need without SM versus with it.
class MultiTenantHost {
 public:
  /// `shared_device` selects the real sharded path (see file header). The
  /// base config's tuning must pass ValidateForSharedDevice() then.
  MultiTenantHost(HostSimConfig base_config, uint64_t seed, bool shared_device = false);
  ~MultiTenantHost();

  /// Adds a tenant model; `fm_share` is its slice of the host FM budget and
  /// `cls` the scheduler lane its demand reads ride in shared mode.
  Status AddTenant(const ModelConfig& model, Bytes fm_share,
                   TenantClass cls = TenantClass::kForeground);

  /// Runs every tenant at `qps_per_tenant` for `queries_per_tenant`.
  /// Isolated mode runs tenants sequentially on private loops (exact: they
  /// share nothing); shared mode interleaves all tenants' arrivals on the
  /// common loop. Callable repeatedly; caches stay warm across runs.
  [[nodiscard]] MultiTenantReport Run(double qps_per_tenant, uint64_t queries_per_tenant);

  [[nodiscard]] size_t tenant_count() const {
    return shared_mode_ ? shards_.size() : isolated_.size();
  }
  [[nodiscard]] bool shared_device() const { return shared_mode_; }
  /// Shared-mode device stack (null in isolated mode).
  [[nodiscard]] SharedDeviceService* service() { return service_.get(); }
  /// Shared-mode shard store (isolated mode: the tenant sim's store).
  [[nodiscard]] SdmStore& tenant_store(size_t i);
  /// Tenant i's inference engine (either mode).
  [[nodiscard]] InferenceEngine& tenant_engine(size_t i);

  /// Observability exports (src/obs), shared mode only: the device stack
  /// records under "svc/", tenant i's store under "tenant<i>/". "{}" when
  /// tuning.obs is off or in isolated mode (each private host owns its
  /// Observability there).
  [[nodiscard]] std::string ObsMetricsJson();
  [[nodiscard]] std::string ObsTraceJson();
  [[nodiscard]] std::string ObsSloJson();

 private:
  struct IsolatedTenant {  // isolated mode: a whole private host
    ModelConfig model;
    TenantClass cls = TenantClass::kForeground;
    std::unique_ptr<HostSimulation> sim;
  };

  [[nodiscard]] MultiTenantReport RunIsolated(double qps, uint64_t queries);
  [[nodiscard]] MultiTenantReport RunShared(double qps, uint64_t queries);

  HostSimConfig base_config_;
  uint64_t seed_;
  bool shared_mode_;
  EventLoop loop_;  ///< shared-mode loop (unused in isolated mode)
  std::unique_ptr<Observability> obs_;  ///< shared mode; outlives the stacks
  std::unique_ptr<SharedDeviceService> service_;  ///< lazily built (shared mode)
  std::vector<ServingShard> shards_;  ///< shared mode: tenant i's shard
  std::vector<IsolatedTenant> isolated_;
};

}  // namespace sdm
