#include "serving/run_meter.h"

#include <algorithm>

#include "fault/replication_manager.h"

namespace sdm {

namespace {

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

StackCounters StackCounters::Of(SharedDeviceService& stack) {
  StackCounters c;
  for (size_t d = 0; d < stack.device_count(); ++d) {
    const StatsRegistry& dev = stack.device(d).stats();
    c.device_reads += dev.CounterValue("reads");
    c.bus_bytes += dev.CounterValue("bus_bytes");
    c.useful_bytes += dev.CounterValue("useful_bytes");
    c.blocks_corrupt += dev.CounterValue("blocks_corrupt");
    c.io_errors += stack.io_engine(d).stats().CounterValue("errors");
    c.io_cpu_ns += static_cast<uint64_t>(stack.io_engine(d).cpu_time().nanos());
  }
  if (const ReplicationManager* repl = stack.replication(); repl != nullptr) {
    c.extents_replicated = repl->extents_replicated();
  }
  c.io = stack.cross_request_io_stats();
  return c;
}

StackCounters StackCounters::Since(const StackCounters& base) const {
  StackCounters d;
  d.device_reads = device_reads - base.device_reads;
  d.bus_bytes = bus_bytes - base.bus_bytes;
  d.useful_bytes = useful_bytes - base.useful_bytes;
  d.io_errors = io_errors - base.io_errors;
  d.blocks_corrupt = blocks_corrupt - base.blocks_corrupt;
  d.extents_replicated = extents_replicated - base.extents_replicated;
  d.io_cpu_ns = io_cpu_ns - base.io_cpu_ns;
  d.io = io.Since(base.io);
  return d;
}

RunMeter::RunMeter(ServingShard& shard) : shard_(&shard), begin_(Take()) {
  if (owns_stack()) stack_begin_ = StackCounters::Of(shard.store->device_service());
}

RunMeter::ShardCounters RunMeter::Take() const {
  SdmStore& store = *shard_->store;
  LookupEngine& lookups = shard_->engine->lookups();
  ShardCounters c;
  if (const DualRowCache* rc = store.row_cache(); rc != nullptr) {
    c.row_hits = rc->stats().hits;
    c.row_misses = rc->stats().misses;
  }
  if (const PooledEmbeddingCache* pc = store.pooled_cache(); pc != nullptr) {
    c.pooled_hits = pc->stats().hits;
    c.pooled_lookups = pc->stats().hits + pc->stats().misses + pc->stats().uncacheable;
  }
  c.prefetch = store.prefetch_stats();
  c.io_retries = lookups.stats().CounterValue("io_retries");
  c.rows_failed = lookups.stats().CounterValue("rows_failed");
  c.lookups_shed = lookups.stats().CounterValue("shed_lookups");
  c.replica_reads = lookups.stats().CounterValue("replica_reads");
  c.read_repairs = lookups.stats().CounterValue("read_repairs");
  c.cpu_ns = static_cast<uint64_t>(lookups.cpu_time().nanos()) +
             shard_->engine->stats().CounterValue("cpu_ns");
  c.share = store.device_service().tenant_io_share(store.tenant_id());
  c.throttle_queue_time = store.device_service().throttle_queue_time(store.tenant_id());
  return c;
}

TenantIoShare RunMeter::share() const {
  SdmStore& store = *shard_->store;
  return store.device_service().tenant_io_share(store.tenant_id()).Since(begin_.share);
}

SimDuration RunMeter::throttle_queue_time() const {
  SdmStore& store = *shard_->store;
  return store.device_service().throttle_queue_time(store.tenant_id()) -
         begin_.throttle_queue_time;
}

HostRunReport RunMeter::Report(const ArrivalStats& arrivals, double offered_qps,
                               SimDuration span) const {
  HostRunReport r;
  const double span_s = span.seconds();
  r.queries_completed = arrivals.completed;
  r.queries_served = arrivals.served;
  r.queries_degraded = arrivals.degraded;
  r.offered_qps = offered_qps;
  r.achieved_qps = span_s > 0 ? static_cast<double>(arrivals.completed) / span_s : 0;
  r.p50 = SimDuration(arrivals.latencies.P50());
  r.p95 = SimDuration(arrivals.latencies.P95());
  r.p99 = SimDuration(arrivals.latencies.P99());
  r.mean = SimDuration(static_cast<int64_t>(arrivals.latencies.mean()));

  // ---- Shard-owned ----
  const ShardCounters now = Take();
  const ShardCounters& b = begin_;
  const uint64_t row_hits = now.row_hits - b.row_hits;
  r.row_cache_hit_rate = Ratio(row_hits, row_hits + (now.row_misses - b.row_misses));
  r.pooled_hit_rate = Ratio(now.pooled_hits - b.pooled_hits, now.pooled_lookups - b.pooled_lookups);
  r.prefetch_issued = now.prefetch.rows_issued - b.prefetch.rows_issued;
  // Claims can lag issues across runs (rows issued during warmup may be
  // claimed here), so the per-run ratio is clamped to [0,1].
  r.prefetch_hit_rate =
      std::min(1.0, Ratio(now.prefetch.rows_hit - b.prefetch.rows_hit, r.prefetch_issued));
  const uint64_t pf_bytes = now.prefetch.bytes_issued - b.prefetch.bytes_issued;
  const uint64_t pf_bytes_hit = now.prefetch.bytes_hit - b.prefetch.bytes_hit;
  r.prefetch_wasted_bytes = pf_bytes > pf_bytes_hit ? pf_bytes - pf_bytes_hit : 0;
  r.io_retries = now.io_retries - b.io_retries;
  r.rows_failed = now.rows_failed - b.rows_failed;
  r.lookups_shed = now.lookups_shed - b.lookups_shed;
  r.replica_reads = now.replica_reads - b.replica_reads;
  r.read_repairs = now.read_repairs - b.read_repairs;
  r.singleflight_hits = now.share.singleflight_hits - b.share.singleflight_hits;
  uint64_t cpu_ns = now.cpu_ns - b.cpu_ns;

  // ---- Stack-owned ----
  if (owns_stack()) {
    const StackCounters total = StackCounters::Of(shard_->store->device_service());
    const StackCounters run = total.Since(stack_begin_);
    r.sm_iops = span_s > 0 ? static_cast<double>(run.device_reads) / span_s : 0;
    // Cumulative, not per run: amplification is a property of the layout.
    r.sm_read_amplification =
        total.useful_bytes > 0
            ? static_cast<double>(total.bus_bytes) / static_cast<double>(total.useful_bytes)
            : 1.0;
    r.cross_request_merges = run.io.cross_request_merges;
    // The stack's count also includes demand joining prefetch reads, which
    // the tenant ledger leaves out.
    r.singleflight_hits = run.io.singleflight_hits;
    r.batch_occupancy = run.io.BatchOccupancy();
    r.deadline_expired = run.io.deadline_expired;
    r.hedges_issued = run.io.hedges_issued;
    r.hedges_won = run.io.hedges_won;
    r.io_errors = run.io_errors;
    r.blocks_corrupt = run.blocks_corrupt;
    r.extents_replicated = run.extents_replicated;
    cpu_ns += run.io_cpu_ns;
  }

  const uint64_t q = std::max<uint64_t>(1, arrivals.completed);
  r.avg_cpu_per_query = SimDuration(static_cast<int64_t>(cpu_ns / q));
  r.cpu_qps_bound = r.avg_cpu_per_query.nanos() > 0
                        ? static_cast<double>(shard_->cores) * 1e9 /
                              static_cast<double>(r.avg_cpu_per_query.nanos())
                        : 0;
  return r;
}

}  // namespace sdm
