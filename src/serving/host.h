// Host types (paper Table 7) and the single-host serving simulation.
//
// HostSpec captures what distinguishes the paper's deployment platforms:
// CPU sockets, DRAM, attached SSDs, accelerator, and (normalized) power.
// HostSimulation builds one ServingShard owning its device stack on one
// EventLoop and drives it as the single participant of the open-loop
// Poisson arrival loop, measuring QPS/latency/hit-rate through the
// RunMeter — the quantities Tables 8/9/10/11 build their fleet arithmetic
// on.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/model_loader.h"
#include "obs/observability.h"
#include "serving/inference_engine.h"
#include "serving/serving_shard.h"

namespace sdm {

struct HostSpec {
  std::string name;
  int cpu_sockets = 1;
  Bytes dram = 64 * kGiB;            ///< nominal production DRAM
  std::vector<DeviceSpec> ssds;      ///< SM devices (empty = DRAM-only host)
  bool accelerator = false;
  /// Host power normalized so HW-L == 1.0 (paper reports normalized power).
  double power = 1.0;
  /// Dense execution rate for one query: per-core flops/s on CPU hosts
  /// (a query's MLP work occupies one core), whole-device flops/s when an
  /// accelerator runs the dense part.
  double dense_flops = 2.0e10;

  /// Usable cores (the admission limit and Eq. 5's compute denominator).
  [[nodiscard]] int cores() const { return 20 * cpu_sockets; }
};

/// Table 7 host types.
[[nodiscard]] HostSpec MakeHwL();   ///< 2x Xeon, 256GB, no SSD
[[nodiscard]] HostSpec MakeHwS();   ///< 1x Xeon, 64GB (scale-out helper)
[[nodiscard]] HostSpec MakeHwSS();  ///< 1x Xeon, 64GB, 2x 2TB Nand
[[nodiscard]] HostSpec MakeHwAN();  ///< accelerator + 2x 1TB Nand
[[nodiscard]] HostSpec MakeHwAO();  ///< accelerator + 2x 0.4TB Optane
/// M3-era platforms (§5.3): big accelerator host, optionally with Optane.
[[nodiscard]] HostSpec MakeHwF();
[[nodiscard]] HostSpec MakeHwFAO(int num_optane_ssds = 9);

struct HostSimConfig {
  HostSpec host;
  /// FM the SDM may use (scaled-down experiments use far less than the
  /// host's nominal DRAM).
  Bytes fm_capacity = 128 * kMiB;
  /// Backing bytes allocated per SSD (scaled).
  Bytes sm_backing_per_device = 256 * kMiB;
  TuningConfig tuning;
  LoaderOptions loader;
  WorkloadConfig workload;
  InferenceConfig inference;
  uint64_t seed = 7;
};

struct HostRunReport {
  uint64_t queries_completed = 0;
  /// Arrivals this host's engine admitted in the run (completed counts only
  /// the ones that finished OK). Stays 0 on a default-constructed report,
  /// which is how cluster aggregation tells an IDLE host (the router never
  /// picked it) from a host that served traffic and achieved nothing.
  uint64_t queries_served = 0;
  double offered_qps = 0;
  double achieved_qps = 0;
  SimDuration p50;
  SimDuration p95;
  SimDuration p99;
  SimDuration mean;
  double row_cache_hit_rate = 0;
  double pooled_hit_rate = 0;
  double sm_iops = 0;               ///< sustained IOs/sec against SM
  double sm_read_amplification = 1;
  // ---- Cross-request batch scheduling (src/sched), this run only ----
  uint64_t cross_request_merges = 0;  ///< spans fused across concurrent queries
  uint64_t singleflight_hits = 0;     ///< runs served by another query's read
  double batch_occupancy = 0;         ///< mean SQEs per ring doorbell
  // ---- Speculative prefetch (src/prefetch), this run only ----
  uint64_t prefetch_issued = 0;       ///< rows read ahead of demand
  double prefetch_hit_rate = 0;       ///< issued rows later claimed by demand
  uint64_t prefetch_wasted_bytes = 0; ///< speculative bus bytes with no demand hit
  // ---- Robustness / fault tolerance (src/fault), this run only ----
  uint64_t io_errors = 0;         ///< device-level read errors (IoEngine)
  uint64_t io_retries = 0;        ///< lookup-read transient-error retries
  uint64_t deadline_expired = 0;  ///< scheduler reads settled by io_deadline
  uint64_t hedges_issued = 0;     ///< tail-latency hedge reads submitted
  uint64_t hedges_won = 0;        ///< hedges that beat the original read
  uint64_t queries_degraded = 0;  ///< completed queries with zero-filled rows
  uint64_t rows_failed = 0;       ///< zero-filled rows across those queries
  uint64_t lookups_shed = 0;      ///< lookups short-circuited by the health monitor
  // ---- Self-healing storage (src/fault), this run only ----
  uint64_t blocks_corrupt = 0;      ///< 4KB blocks failing their checksum (bit rot)
  uint64_t replica_reads = 0;       ///< demand reads failed over to an extent replica
  uint64_t read_repairs = 0;        ///< terminally-failed reads served from a replica
  uint64_t extents_replicated = 0;  ///< extents re-replicated off sick endpoints
  SimDuration avg_cpu_per_query;
  /// Max QPS one host CPU-second supports (1 / cpu_per_query); the compute
  /// term of Eq. 5.
  double cpu_qps_bound = 0;

  [[nodiscard]] std::string Summary() const;
};

class HostSimulation {
 public:
  explicit HostSimulation(HostSimConfig config);

  /// Loads the model onto the host's SDM. Must be called once before Run.
  Status LoadModel(const ModelConfig& model);

  /// Runs `num_queries` open-loop Poisson arrivals at `target_qps`
  /// (virtual time) and reports. Callable repeatedly; histograms reset per
  /// run, caches stay warm across runs (matching steady-state measurement
  /// after a warmup run).
  [[nodiscard]] HostRunReport Run(double target_qps, uint64_t num_queries);

  /// Like Run, but serves queries for an explicit user sequence (one query
  /// per entry) — the cluster router uses this to replay a routed stream.
  [[nodiscard]] HostRunReport RunUsers(std::span<const UserId> users, double target_qps);

  /// Convenience: warm the caches with `n` queries (no measurement).
  void Warmup(uint64_t n, double qps = 1000.0);

  [[nodiscard]] SdmStore& store() { return *shard_.store; }
  [[nodiscard]] InferenceEngine& engine() { return *shard_.engine; }
  [[nodiscard]] QueryGenerator& workload() { return *shard_.workload; }
  [[nodiscard]] EventLoop& loop() { return loop_; }
  [[nodiscard]] const HostSimConfig& config() const { return config_; }
  [[nodiscard]] const LoadReport& load_report() const { return shard_.load_report; }
  [[nodiscard]] const ServingShard& shard() const { return shard_; }

  /// Observability (src/obs): non-null iff tuning.obs.enabled() at
  /// LoadModel. Metric names carry the "host0/" source prefix.
  [[nodiscard]] Observability* obs() { return obs_.get(); }
  /// Exports close open metric windows first (idempotent); empty documents
  /// when the corresponding subsystem is off.
  [[nodiscard]] std::string ObsMetricsJson();
  [[nodiscard]] std::string ObsTraceJson();
  [[nodiscard]] std::string ObsSloJson();

  /// Finds the highest QPS whose p-latency stays under `sla` (binary
  /// search over Run; `use_p99` picks the percentile — §2.3's p95 vs p99).
  [[nodiscard]] double FindMaxQps(SimDuration sla, bool use_p99, uint64_t queries_per_probe,
                                  double qps_lo = 50, double qps_hi = 100000);

 private:
  /// Serves `num_queries` arrivals of `host` (this host's shard) and reports.
  [[nodiscard]] HostRunReport Serve(const ArrivalParticipant& host, double target_qps,
                                    uint64_t num_queries);

  HostSimConfig config_;
  EventLoop loop_;
  std::unique_ptr<Observability> obs_;  ///< must outlive shard_
  ServingShard shard_;                  ///< empty until LoadModel
};

}  // namespace sdm
