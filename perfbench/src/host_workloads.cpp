// Single-host workloads: m1_cached, m2_io_bound and m1_refresh_faults.
//
// The stack is assembled through HostSimulation; the benchmark generates
// the queries itself (QueryGenerator seeded from the workload seed) and
// submits them to the host's InferenceEngine at Poisson arrival times in
// virtual time (open loop), so each query's latency counts from its
// scheduled arrival and includes admission queueing.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>

#include "bench.h"
#include "core/lookup_engine.h"
#include "core/model_updater.h"
#include "fault/fault_injector.h"
#include "serving/host.h"

namespace perfbench {
namespace {

using namespace sdm;

/// M1-mini (bench_table8_m1_power): the M1 table ratios scaled down.
ModelConfig M1Mini() {
  ModelConfig model;
  model.name = "m1-mini";
  model.item_batch_size = 10;
  model.user_batch_size = 1;
  model.num_mlp_layers = 31;
  model.avg_mlp_width = 300;
  Rng rng(0x81);
  for (int i = 0; i < 12; ++i) {
    TableConfig t;
    t.name = "m1.user." + std::to_string(i);
    t.role = TableRole::kUser;
    t.dtype = DataType::kInt8Rowwise;
    t.dim = 120;
    t.num_rows = 30'000;
    t.avg_pooling_factor = 10;
    t.zipf_alpha = rng.NextDouble(0.65, 0.9);
    model.tables.push_back(t);
  }
  for (int i = 0; i < 6; ++i) {
    TableConfig t;
    t.name = "m1.item." + std::to_string(i);
    t.role = TableRole::kItem;
    t.dtype = DataType::kInt8Rowwise;
    t.dim = 120;
    t.num_rows = 2'000;
    t.avg_pooling_factor = 4;
    t.zipf_alpha = rng.NextDouble(0.9, 1.15);
    model.tables.push_back(t);
  }
  return model;
}

/// M2-mini (bench_table9_m2_scaleout): accelerator-class model.
ModelConfig M2Mini() {
  ModelConfig model;
  model.name = "m2-mini";
  model.item_batch_size = 30;
  model.user_batch_size = 1;
  model.num_mlp_layers = 43;
  model.avg_mlp_width = 735;
  Rng rng(0x92);
  for (int i = 0; i < 30; ++i) {
    TableConfig t;
    t.name = "m2.user." + std::to_string(i);
    t.role = TableRole::kUser;
    t.dtype = DataType::kInt8Rowwise;
    t.dim = 56;
    t.num_rows = 25'000;
    t.avg_pooling_factor = 8;
    t.zipf_alpha = rng.NextDouble(0.65, 0.9);
    model.tables.push_back(t);
  }
  for (int i = 0; i < 15; ++i) {
    TableConfig t;
    t.name = "m2.item." + std::to_string(i);
    t.role = TableRole::kItem;
    t.dtype = DataType::kInt8Rowwise;
    t.dim = 32;
    t.num_rows = 3'000;
    t.avg_pooling_factor = 4;
    t.zipf_alpha = rng.NextDouble(0.9, 1.15);
    model.tables.push_back(t);
  }
  return model;
}

struct HostWorkload {
  HostSimConfig cfg;
  ModelConfig model;
  double offered_qps = 0;
  SimDuration slo;
  uint64_t warmup_queries = 0;
  uint64_t measured_queries = 0;  ///< per measured pass
  uint64_t probe_queries = 0;     ///< per max-QPS probe
  double sweep_start_qps = 0;     ///< first max-QPS probe: a capacity estimate
  uint64_t segment_queries = 0;   ///< per sim_qps timing segment
  bool refresh_faults = false;
};

HostWorkload MakeWorkload(const std::string& name) {
  HostWorkload w;
  if (name == "m2_io_bound") {
    w.cfg.host = MakeHwAN();
    w.cfg.fm_capacity = 8 * kMiB;
    w.cfg.sm_backing_per_device = 64 * kMiB;
    w.cfg.workload.num_users = 50'000;
    w.cfg.workload.user_index_churn = 0.10;
    w.cfg.seed = 9;
    w.model = M2Mini();
    // 3,500 QPS, not the 5,000 first tried: at 5,000 (85% of capacity) p99
    // over the 4,000 queries a run can afford moved by +-20% across seeds.
    w.offered_qps = 3500;
    w.slo = Millis(8);
    w.warmup_queries = 1500;
    w.measured_queries = 4000;
    w.probe_queries = 2000;
    w.sweep_start_qps = 5500;
    w.segment_queries = 300;
    return w;
  }
  // m1_cached and m1_refresh_faults: bench_table8_m1_power's HW-SS host.
  w.cfg.host = MakeHwSS();
  w.cfg.fm_capacity = 28 * kMiB;
  w.cfg.sm_backing_per_device = 64 * kMiB;
  w.cfg.workload.num_users = 1500;
  w.cfg.workload.user_index_churn = 0.02;
  w.cfg.seed = 8;
  w.model = M1Mini();
  w.offered_qps = 5000;
  w.slo = Millis(10);
  w.warmup_queries = 3000;
  w.measured_queries = 10'000;
  w.probe_queries = 4000;
  w.sweep_start_qps = 6000;
  w.segment_queries = 1000;
  if (name == "m1_refresh_faults") {
    // bench_fault_tolerance's responses: deadline, backoff, hedging,
    // health monitor, checksums (whole-block reads) and replication.
    TuningConfig& t = w.cfg.tuning;
    t.io_deadline = Millis(2);
    t.retry_backoff_base = Micros(20);
    t.hedge_latency_factor = 2.0;
    t.hedge_min_samples = 64;
    t.enable_health_monitor = true;
    t.enable_checksums = true;
    t.sub_block_reads = false;
    t.enable_replication = true;
    w.refresh_faults = true;
  }
  return w;
}

/// The scripted storm on device 0, from the start of the second serving
/// segment. With one retry per read, a burst or rot probability p fails a
/// read with probability p^2, so both stay rare enough that no query fails.
/// The fail-slow window makes reads expire at the IO deadline and arms
/// hedges; every expired read succeeds on its retry. (A stall longer than
/// the deadline is left out: retries join the stalled reads and expire
/// with them.)
FaultPlan StormPlan(SimTime t0) {
  const SimTime end = t0 + Seconds(60);
  FaultPlan plan;
  plan.ErrorBurst(t0, end, /*probability=*/1e-4, /*device=*/0)
      .BitRot(t0, end, /*probability=*/1e-4, /*device=*/0)
      .FailSlow(t0 + Millis(200), t0 + Millis(300), /*multiplier=*/3.0, /*device=*/0);
  return plan;
}

struct Stack {
  std::unique_ptr<FaultInjector> injector;  ///< declared first: outlives the store
  std::unique_ptr<HostSimulation> sim;
  std::unique_ptr<QueryGenerator> gen;  ///< the benchmark's own input generator
  double setup_s = 0;
};

struct PassStats {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t degraded = 0;
  /// Exact query latencies: the end-to-end percentiles are order
  /// statistics, not histogram buckets, so they move with every sample.
  std::vector<int64_t> latencies;
  Histogram queue;
  Histogram user_path;
  Histogram item_path;
  std::vector<int64_t> done_at;  ///< virtual completion time of OK queries
  SimTime first_arrival;
  SimTime last_arrival;
  double host_s = 0;

  /// Errored, refused or degraded.
  [[nodiscard]] uint64_t failed() const { return attempted - (ok - degraded); }

  void Absorb(const PassStats& o) {
    attempted += o.attempted;
    ok += o.ok;
    degraded += o.degraded;
    latencies.insert(latencies.end(), o.latencies.begin(), o.latencies.end());
    queue.Merge(o.queue);
    user_path.Merge(o.user_path);
    item_path.Merge(o.item_path);
    host_s += o.host_s;
  }
};

/// Serves one query per gap at `qps` and runs the loop to idle. Traced runs
/// step the loop one event at a time inside a "common.event" span.
PassStats Serve(Stack& s, std::span<const double> gaps, double qps, Tracer* tr) {
  PassStats ps;
  EventLoop& loop = s.sim->loop();
  InferenceEngine& engine = s.sim->engine();
  const double h0 = HostNow();
  SimTime t = loop.Now();
  for (size_t i = 0; i < gaps.size(); ++i) {
    t += Seconds(gaps[i] / qps);
    if (i == 0) ps.first_arrival = t;
    loop.ScheduleAt(t, [&ps, &s, &engine, &loop, tr, i] {
      Query q;
      {
        Scope gen(tr, "trace.gen", i + 1);
        q = s.gen->Next();
      }
      Scope submit(tr, "serving.submit", i + 1);
      ++ps.attempted;
      engine.Submit(q, [&ps, &loop](Status st, const QueryTrace& qt) {
        if (!st.ok()) return;
        ++ps.ok;
        if (qt.degraded) ++ps.degraded;
        ps.latencies.push_back(qt.total.nanos());
        ps.queue.Record(qt.queue_time);
        ps.user_path.Record(qt.user_path);
        ps.item_path.Record(qt.item_path);
        ps.done_at.push_back(loop.Now().nanos());
      });
    });
  }
  ps.last_arrival = t;
  if (tr == nullptr) {
    loop.RunUntilIdle();
  } else {
    while (!loop.idle()) {
      Scope ev(tr, "common.event");
      loop.RunOne();
    }
  }
  ps.host_s = HostNow() - h0;
  return ps;
}

Stack BuildStack(const HostWorkload& w, uint64_t seed, Tracer* tr) {
  const double t0 = HostNow();
  Stack s;
  s.sim = std::make_unique<HostSimulation>(w.cfg);
  {
    Scope load(tr, "core.load");
    if (Status st = s.sim->LoadModel(w.model); !st.ok()) Fatal("LoadModel", st);
  }
  WorkloadConfig wc = w.cfg.workload;
  wc.seed = DeriveSeed(seed, 1);
  s.gen = std::make_unique<QueryGenerator>(w.model, wc);
  const std::vector<double> warm = UnitGaps(DeriveSeed(seed, 2), w.warmup_queries);
  (void)Serve(s, warm, w.offered_qps, nullptr);
  s.setup_s = HostNow() - t0;
  return s;
}

/// Cumulative public counters of every layer, snapshotted around a pass.
struct Snap {
  uint64_t events = 0;
  uint64_t rows = 0;
  uint64_t rows_deduped = 0;
  uint64_t retries = 0;
  uint64_t rows_failed = 0;
  uint64_t read_repairs = 0;
  uint64_t cpu_ns = 0;
  uint64_t io_cpu_ns = 0;
  RowCacheStats rc;
  uint64_t pooled_hits = 0;
  uint64_t pooled_total = 0;
  CrossRequestIoStats x;
  uint64_t flush_deadline = 0;
  uint64_t flushes = 0;
  uint64_t dev_reads = 0;
  uint64_t bus = 0;
  uint64_t useful = 0;
  uint64_t written = 0;
  int64_t throttle_ns = 0;
};

Snap TakeSnap(HostSimulation& sim) {
  Snap s;
  SdmStore& store = sim.store();
  const StatsRegistry& lk = sim.engine().lookups().stats();
  s.events = sim.loop().events_run();
  s.rows = lk.CounterValue("rows_cache_hit") + lk.CounterValue("rows_sm_read") +
           lk.CounterValue("rows_fm_read") + lk.CounterValue("rows_block_hit");
  s.rows_deduped = lk.CounterValue("rows_deduped");
  s.retries = lk.CounterValue("io_retries");
  s.rows_failed = lk.CounterValue("rows_failed");
  s.read_repairs = lk.CounterValue("read_repairs");
  s.cpu_ns = static_cast<uint64_t>(sim.engine().lookups().cpu_time().nanos()) +
             sim.engine().stats().CounterValue("cpu_ns");
  if (store.row_cache() != nullptr) s.rc = store.row_cache()->stats();
  if (store.pooled_cache() != nullptr) {
    const auto& ps = store.pooled_cache()->stats();
    s.pooled_hits = ps.hits;
    s.pooled_total = ps.hits + ps.misses + ps.uncacheable;
  }
  s.x = store.cross_request_io_stats();
  for (size_t d = 0; d < store.sm_device_count(); ++d) {
    s.io_cpu_ns += static_cast<uint64_t>(store.io_engine(d).cpu_time().nanos());
    s.retries += store.reader(d).retries();
    s.flush_deadline += store.scheduler(d).stats().CounterValue("flush_deadline");
    s.flushes += store.scheduler(d).stats().CounterValue("flushes");
    const StatsRegistry& dev = store.sm_device(d).stats();
    s.dev_reads += dev.CounterValue("reads");
    s.bus += dev.CounterValue("bus_bytes");
    s.useful += dev.CounterValue("useful_bytes");
    s.written += dev.CounterValue("written_bytes");
  }
  s.throttle_ns = store.throttle().QueueTime(0).nanos();
  return s;
}

/// Every [v] metric of one measured pass: the virtual end-to-end figures
/// and each layer's counters over the pass. Latency histograms kept by the
/// layers themselves (lookup, IO engine, device) are cumulative over the
/// stack's life, warmup included.
Metrics VirtualMetrics(HostSimulation& sim, const Snap& a, const Snap& b,
                       const PassStats& ps, double refresh_write_ms) {
  SdmStore& store = sim.store();
  const double q = static_cast<double>(std::max<uint64_t>(1, ps.attempted));
  Metrics m;
  m["p50_us"] = NsToUs(Percentile(ps.latencies, 0.50));
  m["p99_us"] = NsToUs(Percentile(ps.latencies, 0.99));
  m["p999_us"] = NsToUs(Percentile(ps.latencies, 0.999));
  m["queries_measured"] = static_cast<double>(ps.ok);
  m["failed_share"] = Ratio(static_cast<double>(ps.failed()), q);

  m["common.events_per_query"] = static_cast<double>(b.events - a.events) / q;
  m["common.windows_per_query"] = 0;
  m["common.events_per_window"] = 0;
  m["serving.admission_wait_p99_us"] = NsToUs(ps.queue.P99());
  m["serving.user_path_p99_us"] = NsToUs(ps.user_path.P99());
  m["serving.item_path_p99_us"] = NsToUs(ps.item_path.P99());
  m["serving.cpu_us_per_query"] =
      static_cast<double>((b.cpu_ns + b.io_cpu_ns) - (a.cpu_ns + a.io_cpu_ns)) / 1e3 / q;
  m["core.lookup_p99_us"] = NsToUs(sim.engine().lookups().latency().P99());
  const double rows = static_cast<double>(b.rows - a.rows);
  m["core.rows_per_query"] = rows / q;
  m["core.rows_deduped_share"] = Ratio(static_cast<double>(b.rows_deduped - a.rows_deduped), rows);
  m["core.refresh_write_ms"] = refresh_write_ms;
  const double hits = static_cast<double>(b.rc.hits - a.rc.hits);
  const double probes = hits + static_cast<double>(b.rc.misses - a.rc.misses);
  m["cache.row_hit_rate"] = Ratio(hits, probes);
  m["cache.probes_per_query"] = probes / q;
  m["cache.pooled_hit_rate"] = Ratio(static_cast<double>(b.pooled_hits - a.pooled_hits),
                                     static_cast<double>(b.pooled_total - a.pooled_total));
  m["cache.evictions_per_query"] = static_cast<double>(b.rc.evictions - a.rc.evictions) / q;
  const CrossRequestIoStats x = b.x.Since(a.x);
  m["sched.batch_occupancy"] = x.BatchOccupancy();
  m["sched.singleflight_share"] =
      Ratio(static_cast<double>(x.singleflight_hits),
            static_cast<double>(x.singleflight_hits + x.device_reads));
  m["sched.merges_per_query"] = static_cast<double>(x.cross_request_merges) / q;
  m["sched.deadline_flush_share"] = Ratio(static_cast<double>(b.flush_deadline - a.flush_deadline),
                                          static_cast<double>(b.flushes - a.flushes));
  Histogram engine_lat;
  Histogram device_lat;
  for (size_t d = 0; d < store.sm_device_count(); ++d) {
    engine_lat.Merge(store.io_engine(d).latency());
    device_lat.Merge(store.sm_device(d).read_latency());
  }
  m["io.engine_p99_us"] = NsToUs(engine_lat.P99());
  m["io.throttle_wait_ms"] = static_cast<double>(b.throttle_ns - a.throttle_ns) / 1e6;
  m["io.cpu_us_per_query"] = static_cast<double>(b.io_cpu_ns - a.io_cpu_ns) / 1e3 / q;
  m["device.reads_per_query"] = static_cast<double>(b.dev_reads - a.dev_reads) / q;
  m["device.read_amp"] = Ratio(static_cast<double>(b.bus - a.bus),
                               static_cast<double>(b.useful - a.useful));
  m["device.read_p99_us"] = NsToUs(device_lat.P99());
  m["device.write_mib"] = static_cast<double>(b.written - a.written) / static_cast<double>(kMiB);
  m["fabric.queue_us_per_transfer"] = 0;
  m["fabric.bytes_per_query"] = 0;
  m["tenant.cross_host_share"] = 0;
  m["fault.retries_per_1k"] = static_cast<double>(b.retries - a.retries) * 1e3 / q;
  m["fault.hedge_win_share"] =
      Ratio(static_cast<double>(x.hedges_won), static_cast<double>(x.hedges_issued));
  m["fault.rows_failed_per_1k"] = static_cast<double>(b.rows_failed - a.rows_failed) * 1e3 / q;
  m["fault.read_repairs"] = static_cast<double>(b.read_repairs - a.read_repairs);
  m["fault.deadline_expired"] = static_cast<double>(x.deadline_expired);
  return m;
}

/// m1_refresh_faults' online incremental refresh of 20% of the rows.
UpdateOptions RefreshOptions(uint64_t seed) {
  UpdateOptions uo;
  uo.row_fraction = 0.2;
  uo.online = true;
  uo.seed = DeriveSeed(seed, 5);
  return uo;
}

struct PassResult {
  PassStats ps;
  Metrics v;
};

/// One measured pass. m1_refresh_faults serves two segments around an
/// online incremental refresh, with the storm installed for the second.
PassResult MeasuredPass(Stack& s, const HostWorkload& w, uint64_t seed, Tracer* tr) {
  const std::vector<double> gaps = UnitGaps(DeriveSeed(seed, 3), w.measured_queries);
  const Snap a = TakeSnap(*s.sim);
  PassResult r;
  double refresh_ms = 0;
  if (!w.refresh_faults) {
    r.ps = Serve(s, gaps, w.offered_qps, tr);
  } else {
    const std::span<const double> all(gaps);
    const size_t half = gaps.size() / 2;
    r.ps = Serve(s, all.first(half), w.offered_qps, tr);
    {
      Scope refresh(tr, "core.refresh");
      auto rep = ModelUpdater(&s.sim->store()).Update(RefreshOptions(seed));
      if (!rep.ok()) Fatal("ModelUpdater", rep.status());
      refresh_ms = rep.value().write_time.millis();
    }
    s.injector = std::make_unique<FaultInjector>(StormPlan(s.sim->loop().Now()),
                                                 &s.sim->loop(), DeriveSeed(seed, 6));
    s.sim->store().device_service().InstallFaultInjector(s.injector.get());
    r.ps.Absorb(Serve(s, all.subspan(half), w.offered_qps, tr));
  }
  r.v = VirtualMetrics(*s.sim, a, TakeSnap(*s.sim), r.ps, refresh_ms);
  return r;
}

/// Probe for the max-QPS search: fails on the SLO, on any failed query, or
/// when completions over the arrival window (shifted by the median latency)
/// fall below 99% of arrivals — a growing backlog.
Probe RunProbe(Stack& s, const HostWorkload& w, std::span<const double> gaps, double qps) {
  PassStats ps = Serve(s, gaps, qps, nullptr);
  Probe p;
  p.qps = qps;
  p.p99_ns = static_cast<double>(Percentile(ps.latencies, 0.99));
  const int64_t shift = Percentile(ps.latencies, 0.50);
  const int64_t lo = ps.first_arrival.nanos() + shift;
  const int64_t hi = ps.last_arrival.nanos() + shift;
  const auto in_window = std::count_if(ps.done_at.begin(), ps.done_at.end(),
                                       [&](int64_t t) { return t >= lo && t <= hi; });
  const double achieved = static_cast<double>(in_window) / static_cast<double>(gaps.size());
  p.passed = p.p99_ns <= static_cast<double>(w.slo.nanos()) && ps.failed() == 0 &&
             achieved >= 0.99;
  return p;
}

/// Pooled vectors of a sample of lookups must equal, bit for bit, those of
/// an FM-only reference store holding the same tables.
void CheckPooled(Stack& s, const HostWorkload& w, uint64_t seed, const UpdateOptions* refresh,
                 Tracer* tr, RunResult* r) {
  HostSimConfig rc;
  rc.host = MakeHwL();
  rc.fm_capacity = w.model.TotalBytes() + 64 * kMiB;
  rc.loader = w.cfg.loader;
  rc.tuning.enable_row_cache = false;
  for (const auto& t : w.model.tables) rc.tuning.never_on_sm.insert(t.name);
  HostSimulation ref(rc);
  if (Status st = ref.LoadModel(w.model); !st.ok()) Fatal("reference LoadModel", st);
  // The refresh writes rows deterministic in its options, so the reference
  // applies the same one.
  if (refresh != nullptr) {
    if (auto rep = ModelUpdater(&ref.store()).Update(*refresh); !rep.ok()) {
      Fatal("reference refresh", rep.status());
    }
  }

  WorkloadConfig wc = w.cfg.workload;
  wc.seed = DeriveSeed(seed, 4);
  QueryGenerator sample(w.model, wc);
  constexpr int kQueries = 40;
  uint64_t compared = 0;
  uint64_t mismatched = 0;
  for (int k = 0; k < kQueries; ++k) {
    const Query q = sample.Next();
    for (size_t t = 0; t < q.indices.size(); ++t) {
      LookupRequest req;
      req.table = MakeTableId(static_cast<uint32_t>(t));
      req.indices = q.indices[t];
      std::vector<float> got;
      std::vector<float> want;
      bool got_ok = false;
      bool want_ok = false;
      {
        Scope lookup(tr, "core.lookup", k + 1);
        s.sim->engine().lookups().Lookup(req, [&](Status st, std::vector<float> v,
                                                  const LookupTrace&) {
          got_ok = st.ok();
          got = std::move(v);
        });
        s.sim->loop().RunUntilIdle();
      }
      ref.engine().lookups().Lookup(req, [&](Status st, std::vector<float> v,
                                             const LookupTrace&) {
        want_ok = st.ok();
        want = std::move(v);
      });
      ref.loop().RunUntilIdle();
      ++compared;
      if (!got_ok || !want_ok || got.size() != want.size() ||
          std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) != 0) {
        ++mismatched;
      }
    }
  }
  if (mismatched > 0) {
    AddFailure(r, std::to_string(mismatched) + " of " + std::to_string(compared) +
                      " pooled lookups differ from the FM-only reference");
  }
  r->notes.push_back("pooled-output check: " + std::to_string(compared) +
                     " lookups compared bit for bit against an FM-only reference, " +
                     std::to_string(mismatched) + " mismatched");
}

}  // namespace

RunResult RunHostWorkload(const Options& opt) {
  const HostWorkload w = MakeWorkload(opt.workload);
  RunResult r;
  SpeedGauge gauge;
  std::vector<double> setups;      // at the gauge's reference speed
  std::vector<double> raw_setups;  // the same set-ups as measured
  std::vector<double> rates;       // simulated queries per host-second, per segment, ditto
  std::vector<double> raw_rates;   // the same segments as measured
  // A set-up, rescaled by the gauge samples around it.
  const auto timed_build = [&] {
    gauge.Sample();
    Stack s = BuildStack(w, opt.seed, nullptr);
    raw_setups.push_back(s.setup_s);
    setups.push_back(gauge.Rescale(s.setup_s));
    return s;
  };

  // Pass 1 on a fresh stack; its [v] metrics are the reference every later
  // pass must reproduce exactly.
  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;
  Stack a = timed_build();
  const PassResult first = MeasuredPass(a, w, opt.seed, nullptr);
  const double untraced_qps = static_cast<double>(first.ps.ok) / first.ps.host_s;
  const UpdateOptions refresh = RefreshOptions(opt.seed);
  CheckPooled(a, w, opt.seed, w.refresh_faults ? &refresh : nullptr, tr, &r);
  a = Stack{};

  r.attempted = first.ps.attempted;
  r.failed = first.ps.failed();
  if (first.ps.failed() != 0 || first.ps.attempted != w.measured_queries) {
    AddFailure(&r, std::to_string(first.ps.failed()) + " of " +
                       std::to_string(first.ps.attempted) + " queries failed");
  }

  if (opt.trace) {
    // Traced pass on a fresh stack: must reproduce pass 1's [v] metrics.
    Stack b = BuildStack(w, opt.seed, tr);
    const PassResult traced = MeasuredPass(b, w, opt.seed, tr);
    CheckIdentical(first.v, traced.v, "traced vs untraced", &r);
    // Replay the pass's inputs through each layer: the same generator
    // stream, past the warmup queries.
    WorkloadConfig wc = w.cfg.workload;
    wc.seed = DeriveSeed(opt.seed, 1);
    QueryGenerator regen(w.model, wc);
    for (uint64_t i = 0; i < w.warmup_queries; ++i) (void)regen.Next();
    ReplayInput input;
    for (uint64_t i = 0; i < w.measured_queries; ++i) {
      RecordSmLookups(b.sim->store(), regen.Next(), &input);
    }
    ReplayLayers(b.sim->store(), input, /*with_fabric=*/false, tr);

    for (const auto& [name, value] : first.v) {
      if (name.find('.') != std::string::npos) r.per_layer[name] = value;
    }
    const Tracer::Totals ev = tracer.totals("common.event");
    r.per_layer["common.ns_per_event"] =
        ev.count == 0 ? 0 : static_cast<double>(ev.self_ns) / static_cast<double>(ev.count);
    r.per_layer["common.ns_per_window"] = 0;
    r.per_layer["trace.gen_ns_per_query"] = tracer.MeanNs("trace.gen");
    r.per_layer["serving.submit_ns"] = tracer.MeanNs("serving.submit");
    r.per_layer["core.load_s"] = static_cast<double>(tracer.totals("core.load").total_ns) / 1e9;
    r.per_layer["core.lookup_ns"] = tracer.MeanNs("core.lookup");
    AddReplayMetrics(tracer, &r.per_layer);
    const double traced_qps = static_cast<double>(traced.ps.ok) / traced.ps.host_s;
    r.per_layer["perfbench.trace_overhead_share"] = 1.0 - traced_qps / untraced_qps;
    r.notes.push_back("traced sim_qps " + std::to_string(traced_qps) + " vs untraced " +
                      std::to_string(untraced_qps) + " 1/s");
    if (!opt.trace_out.empty() && !tracer.Write(opt.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
    }
    return r;
  }

  // A back-to-back pass on a fresh stack must reproduce pass 1 exactly.
  Stack b = timed_build();
  const PassResult again = MeasuredPass(b, w, opt.seed, nullptr);
  CheckIdentical(first.v, again.v, "back-to-back pass", &r);

  // sim_qps: short segments at the offered rate on the warmed stack fill
  // the measuring time, each rescaled by the gauge samples around it; the
  // median over segments rides out what the gauge misses.
  const std::vector<double> seg_gaps = UnitGaps(DeriveSeed(opt.seed, 8), w.segment_queries);
  const double t0 = HostNow();
  gauge.Sample();
  do {
    const PassStats seg = Serve(b, seg_gaps, w.offered_qps, nullptr);
    const double ok = static_cast<double>(seg.ok);
    raw_rates.push_back(ok / seg.host_s);
    rates.push_back(ok / gauge.Rescale(seg.host_s));
  } while (HostNow() - t0 < opt.seconds);
  b = Stack{};

  // Max-QPS search on one more warmed stack.
  Stack c = timed_build();
  const std::vector<double> probe_gaps = UnitGaps(DeriveSeed(opt.seed, 7), w.probe_queries);
  const double max_qps = FindMaxQpsAtSlo(
      w.sweep_start_qps, static_cast<double>(w.slo.nanos()),
      [&](double qps) { return RunProbe(c, w, probe_gaps, qps); });

  r.end_to_end["setup_s"] = Median(setups);
  r.end_to_end["sim_qps"] = Median(rates);
  r.end_to_end["p50_us"] = first.v.at("p50_us");
  r.end_to_end["p99_us"] = first.v.at("p99_us");
  r.end_to_end["max_qps_at_slo"] = max_qps;
  const double measured = first.v.at("queries_measured");
  char buf[256];
  std::snprintf(buf, sizeof(buf), "p999_us = %.17g us [virtual]%s", first.v.at("p999_us"),
                measured >= 10'000 ? "" : " (under 10 samples beyond it; not reported)");
  r.notes.push_back(buf);
  std::snprintf(buf, sizeof(buf), "queries_measured = %.0f; failed_share = %.17g [virtual]",
                measured, first.v.at("failed_share"));
  r.notes.push_back(buf);
  std::snprintf(buf, sizeof(buf), "offered %.0f 1/s; SLO p99 <= %.0f us", w.offered_qps,
                w.slo.micros());
  r.notes.push_back(buf);
  AddGaugeNotes(gauge, rates, raw_rates, setups, raw_setups, &r);
  return r;
}

}  // namespace perfbench
