// RunMeter — the one place a serving run becomes a HostRunReport.
//
// Counters are cumulative across runs (caches stay warm, clocks carry
// over), so a report is the delta between a start-of-run snapshot and the
// counters at report time. Every harness takes the snapshot with a RunMeter
// before it schedules arrivals and asks the same meter for the report after
// the run, passing the run's ArrivalStats and virtual span.
//
// Two kinds of report fields:
//   - SHARD-owned, filled for every shard: latency, QPS, row/pooled hit
//     rate, prefetch, the lookup engine's robustness counters (io_retries,
//     rows_failed, lookups_shed, replica_reads, read_repairs), lookup +
//     dense CPU per query and cpu_qps_bound, and singleflight_hits (the
//     shard's fair-share ledger on a shared stack).
//   - STACK-owned, filled only when the shard owns its device stack
//     (HostSimulation): IOPS, read amplification, scheduler stats, IO
//     errors, corrupt blocks, deadlines, hedges, re-replicated extents and
//     IO-engine CPU. A shared stack serves many shards; its counters are
//     reported once, at tenant-set or cluster level, from StackCounters.
#pragma once

#include <cstdint>

#include "prefetch/prefetcher.h"
#include "serving/arrival_loop.h"
#include "serving/host.h"
#include "serving/serving_shard.h"

namespace sdm {

/// Cumulative counters of one device stack.
struct StackCounters {
  uint64_t device_reads = 0;  ///< physical reads across the stack's devices
  uint64_t bus_bytes = 0;
  uint64_t useful_bytes = 0;
  uint64_t io_errors = 0;  ///< device-level read errors (IoEngines)
  uint64_t blocks_corrupt = 0;
  uint64_t extents_replicated = 0;
  uint64_t io_cpu_ns = 0;  ///< IoEngine CPU
  CrossRequestIoStats io;  ///< scheduler effectiveness

  /// Reads a local stack's devices, IoEngines, schedulers and replication
  /// manager.
  [[nodiscard]] static StackCounters Of(SharedDeviceService& stack);
  /// This-minus-base per-run delta.
  [[nodiscard]] StackCounters Since(const StackCounters& base) const;
};

class RunMeter {
 public:
  /// Snapshots `shard`, and its device stack when the shard owns it. The
  /// shard must outlive the meter.
  explicit RunMeter(ServingShard& shard);

  /// This run's report. Arrival-side fields come from `arrivals`;
  /// achieved QPS and IOPS divide by `span`.
  [[nodiscard]] HostRunReport Report(const ArrivalStats& arrivals, double offered_qps,
                                     SimDuration span) const;

  /// This run's slice of the shard's fair-share ledger on its device stack.
  [[nodiscard]] TenantIoShare share() const;
  /// Virtual time this run's reads queued for an IO slot.
  [[nodiscard]] SimDuration throttle_queue_time() const;

 private:
  struct ShardCounters {
    uint64_t row_hits = 0;
    uint64_t row_misses = 0;
    uint64_t pooled_hits = 0;
    uint64_t pooled_lookups = 0;  ///< hits + misses + uncacheable
    PrefetchStats prefetch;
    uint64_t io_retries = 0;
    uint64_t rows_failed = 0;
    uint64_t lookups_shed = 0;
    uint64_t replica_reads = 0;
    uint64_t read_repairs = 0;
    uint64_t cpu_ns = 0;  ///< lookup engine + dense (host CPU)
    TenantIoShare share;
    SimDuration throttle_queue_time;
  };
  [[nodiscard]] ShardCounters Take() const;
  [[nodiscard]] bool owns_stack() const { return !shard_->store->attached(); }

  ServingShard* shard_;
  ShardCounters begin_;
  StackCounters stack_begin_;  ///< meaningful only when owns_stack()
};

}  // namespace sdm
