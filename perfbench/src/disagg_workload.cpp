// disagg16_sharded: 16 hosts sharing one fabric-attached HW-FAO(2) device
// stack (bench_table9_m2_scaleout's DisaggBase), run on the sharded
// parallel runtime through ClusterSimulation.
//
// The cluster generates each host's Poisson arrivals itself from the
// config seeds, so the workload seed enters as HostSimConfig::seed and
// WorkloadConfig::seed. The cluster report carries per-host percentiles
// only: the latency figures here are per-host percentiles averaged over
// the hosts, weighted by queries completed.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench.h"
#include "core/lookup_engine.h"
#include "dlrm/model_zoo.h"
#include "serving/cluster.h"
#include "serving/sharded_cluster.h"

namespace perfbench {
namespace {

using namespace sdm;

constexpr size_t kHosts = 16;
constexpr size_t kShards = 4;
constexpr double kQpsPerHost = 2000;
constexpr uint64_t kWarmupPerHost = 300;
constexpr uint64_t kMeasuredPerHost = 3500;
constexpr uint64_t kProbePerHost = 600;
constexpr uint64_t kSegmentPerHost = 200;
constexpr double kSweepStartPerHost = 2200;  ///< first max-QPS probe: a capacity estimate
const SimDuration kSlo = Millis(2);

/// bench_table9_m2_scaleout's DisaggBase behind a 20 us RTT, 25 GB/s fabric.
HostSimConfig DisaggBase(uint64_t seed) {
  HostSimConfig base;
  base.host = MakeHwFAO(2);
  base.fm_capacity = 1 * kMiB;
  base.sm_backing_per_device = 64 * kMiB;
  base.workload.num_users = 2000;
  base.workload.seed = DeriveSeed(seed, 1);
  base.seed = DeriveSeed(seed, 2);
  base.tuning.max_batch_delay = Micros(200);
  base.tuning.sub_block_reads = false;
  base.tuning.enable_row_cache = false;
  base.tuning.fabric_latency = Micros(10);
  base.tuning.fabric_bandwidth_bytes_per_sec = 25e9;
  base.tuning.fabric_queueing = true;
  return base;
}

ModelConfig DisaggModel() {
  ModelConfig model = MakeTinyUniformModel(64, 3, 1, 40'000);
  model.tables.back().num_rows = 4'000;  // item side stays FM-direct
  for (auto& t : model.tables) {
    if (t.role == TableRole::kUser) t.zipf_alpha = 1.1;
  }
  return model;
}

struct Cluster {
  std::unique_ptr<ClusterSimulation> sim;
  double setup_s = 0;

  [[nodiscard]] ShardedClusterRuntime& runtime() const { return *sim->sharded_runtime(); }
};

Cluster BuildCluster(uint64_t seed, Tracer* tr) {
  const double t0 = HostNow();
  Cluster c;
  DisaggregatedConfig dc;
  dc.enabled = true;
  dc.num_shards = kShards;
  c.sim = std::make_unique<ClusterSimulation>(kHosts, DisaggBase(seed),
                                              RoutingPolicy::kUserSticky, dc);
  {
    Scope load(tr, "core.load");
    if (Status st = c.sim->LoadModel(DisaggModel()); !st.ok()) Fatal("LoadModel", st);
  }
  if (c.sim->sharded_runtime() == nullptr) {
    Fatal("cluster", InternalError("sharded runtime not active"));
  }
  (void)c.sim->RunDisaggregated(kQpsPerHost * kHosts, kWarmupPerHost * kHosts);
  c.setup_s = HostNow() - t0;
  return c;
}

struct Snap {
  uint64_t events = 0;
  uint64_t windows = 0;
  uint64_t io_cpu_ns = 0;
  uint64_t flush_deadline = 0;
  uint64_t flushes = 0;
  uint64_t bus = 0;
  uint64_t useful = 0;
};

Snap TakeSnap(Cluster& c) {
  Snap s;
  ShardedClusterRuntime& rt = c.runtime();
  s.events = rt.runtime().events_run();
  s.windows = rt.runtime().windows();
  for (size_t h = 0; h < rt.host_count(); ++h) {
    SdmStore& store = rt.host_store(h);
    for (size_t d = 0; d < store.sm_device_count(); ++d) {
      s.io_cpu_ns += static_cast<uint64_t>(store.io_engine(d).cpu_time().nanos());
      s.flush_deadline += store.scheduler(d).stats().CounterValue("flush_deadline");
      s.flushes += store.scheduler(d).stats().CounterValue("flushes");
    }
  }
  SharedDeviceService& stack = rt.device_stack();
  for (size_t d = 0; d < stack.device_count(); ++d) {
    s.bus += stack.device(d).stats().CounterValue("bus_bytes");
    s.useful += stack.device(d).stats().CounterValue("useful_bytes");
  }
  return s;
}

struct PassResult {
  DisaggregatedRunReport report;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  double host_s = 0;
  uint64_t windows = 0;
  uint64_t events = 0;
  Metrics v;

  [[nodiscard]] uint64_t failed() const { return attempted - (ok - report.queries_degraded); }
};

/// Mean of one per-host percentile, weighted by queries completed.
double WeightedPercentileUs(const DisaggregatedRunReport& r, SimDuration HostRunReport::*field) {
  double sum = 0;
  double weight = 0;
  for (const auto& h : r.hosts) {
    const auto n = static_cast<double>(h.run.queries_completed);
    sum += n * (h.run.*field).micros();
    weight += n;
  }
  return Ratio(sum, weight);
}

PassResult RunPass(Cluster& c, double total_qps, uint64_t queries, Tracer* tr) {
  const Snap a = TakeSnap(c);
  PassResult p;
  const double h0 = HostNow();
  {
    Scope run(tr, "serving.cluster_run");
    p.report = c.sim->RunDisaggregated(total_qps, queries);
  }
  p.host_s = HostNow() - h0;
  const Snap b = TakeSnap(c);
  const DisaggregatedRunReport& r = p.report;
  double cpu_ns = 0;
  for (const auto& h : r.hosts) {
    p.attempted += h.run.queries_served;
    p.ok += h.run.queries_completed;
    cpu_ns += static_cast<double>(h.run.avg_cpu_per_query.nanos()) *
              static_cast<double>(h.run.queries_completed);
  }
  p.events = b.events - a.events;
  p.windows = b.windows - a.windows;
  const double q = static_cast<double>(std::max<uint64_t>(1, p.attempted));

  ShardedClusterRuntime& rt = c.runtime();
  Histogram engine_lat;
  for (size_t h = 0; h < rt.host_count(); ++h) {
    SdmStore& store = rt.host_store(h);
    for (size_t d = 0; d < store.sm_device_count(); ++d) {
      engine_lat.Merge(store.io_engine(d).latency());
    }
  }
  Histogram device_lat;
  SharedDeviceService& stack = rt.device_stack();
  for (size_t d = 0; d < stack.device_count(); ++d) device_lat.Merge(stack.device(d).read_latency());
  SimDuration throttle;
  for (const auto& h : r.hosts) throttle += h.throttle_queue_time;

  Metrics& m = p.v;
  m["p50_us"] = WeightedPercentileUs(r, &HostRunReport::p50);
  m["p99_us"] = WeightedPercentileUs(r, &HostRunReport::p99);
  m["queries_measured"] = static_cast<double>(p.ok);
  m["failed_share"] = Ratio(static_cast<double>(p.failed()), q);

  m["common.events_per_query"] = static_cast<double>(p.events) / q;
  m["common.windows_per_query"] = static_cast<double>(p.windows) / q;
  m["common.events_per_window"] = Ratio(static_cast<double>(p.events), static_cast<double>(p.windows));
  // The cluster keeps its engines private: per-query admission and path
  // histograms, lookup latency and row counts are not reachable from
  // outside, so they read 0 here.
  m["serving.admission_wait_p99_us"] = 0;
  m["serving.user_path_p99_us"] = 0;
  m["serving.item_path_p99_us"] = 0;
  m["serving.cpu_us_per_query"] = Ratio(cpu_ns, static_cast<double>(p.ok)) / 1e3;
  m["core.lookup_p99_us"] = 0;
  m["core.rows_per_query"] = 0;
  m["core.rows_deduped_share"] = 0;
  m["core.refresh_write_ms"] = 0;
  m["cache.row_hit_rate"] = r.mean_hit_rate;
  m["cache.probes_per_query"] = 0;
  m["cache.pooled_hit_rate"] = 0;
  m["cache.evictions_per_query"] = 0;
  m["sched.batch_occupancy"] = r.io.BatchOccupancy();
  m["sched.singleflight_share"] =
      Ratio(static_cast<double>(r.io.singleflight_hits),
            static_cast<double>(r.io.singleflight_hits + r.io.device_reads));
  m["sched.merges_per_query"] = static_cast<double>(r.io.cross_request_merges) / q;
  m["sched.deadline_flush_share"] = Ratio(static_cast<double>(b.flush_deadline - a.flush_deadline),
                                          static_cast<double>(b.flushes - a.flushes));
  m["io.engine_p99_us"] = NsToUs(engine_lat.P99());
  m["io.throttle_wait_ms"] = throttle.millis();
  m["io.cpu_us_per_query"] = static_cast<double>(b.io_cpu_ns - a.io_cpu_ns) / 1e3 / q;
  m["device.reads_per_query"] = static_cast<double>(r.sm_device_reads) / q;
  m["device.read_amp"] = Ratio(static_cast<double>(b.bus - a.bus), static_cast<double>(b.useful - a.useful));
  m["device.read_p99_us"] = NsToUs(device_lat.P99());
  m["device.write_mib"] = 0;
  const uint64_t transfers = r.fabric.requests + r.fabric.responses;
  m["fabric.queue_us_per_transfer"] = Ratio(r.fabric.queue_time.micros(), static_cast<double>(transfers));
  m["fabric.bytes_per_query"] = static_cast<double>(r.fabric.request_bytes + r.fabric.response_bytes) / q;
  m["tenant.cross_host_share"] = Ratio(static_cast<double>(r.cross_host_hits),
                                       static_cast<double>(r.io.device_reads));
  m["fault.retries_per_1k"] = 0;
  m["fault.hedge_win_share"] = Ratio(static_cast<double>(r.io.hedges_won), static_cast<double>(r.io.hedges_issued));
  m["fault.rows_failed_per_1k"] = static_cast<double>(r.rows_failed) * 1e3 / q;
  m["fault.read_repairs"] = static_cast<double>(r.read_repairs);
  m["fault.deadline_expired"] = static_cast<double>(r.io.deadline_expired);
  return p;
}

/// Pooled vectors read through the sharded stack must equal an FM-only
/// reference bit for bit. The lookups are issued on host stores of the
/// measured cluster and executed by one more short cluster run, which is
/// what drives the runtime's loops.
void CheckPooled(Cluster& c, uint64_t seed, RunResult* r) {
  const ModelConfig model = DisaggModel();
  HostSimConfig rc;
  rc.host = MakeHwL();
  rc.fm_capacity = model.TotalBytes() + 64 * kMiB;
  rc.tuning.enable_row_cache = false;
  for (const auto& t : model.tables) rc.tuning.never_on_sm.insert(t.name);
  HostSimulation ref(rc);
  if (Status st = ref.LoadModel(model); !st.ok()) Fatal("reference LoadModel", st);

  WorkloadConfig wc = DisaggBase(seed).workload;
  wc.seed = DeriveSeed(seed, 4);
  QueryGenerator sample(model, wc);
  struct Pending {
    LookupRequest req;
    bool ok = false;
    bool done = false;
    std::vector<float> pooled;
  };
  constexpr size_t kQueriesPerHost = 3;
  std::vector<std::unique_ptr<LookupEngine>> engines;
  std::vector<std::unique_ptr<Pending>> pending;
  for (size_t h = 0; h < kHosts; h += 5) {
    engines.push_back(std::make_unique<LookupEngine>(&c.runtime().host_store(h)));
    for (size_t k = 0; k < kQueriesPerHost; ++k) {
      const Query q = sample.Next();
      for (size_t t = 0; t < q.indices.size(); ++t) {
        auto p = std::make_unique<Pending>();
        p->req.table = MakeTableId(static_cast<uint32_t>(t));
        p->req.indices = q.indices[t];
        Pending* raw = p.get();
        engines.back()->Lookup(p->req, [raw](Status st, std::vector<float> v, const LookupTrace&) {
          raw->ok = st.ok();
          raw->done = true;
          raw->pooled = std::move(v);
        });
        pending.push_back(std::move(p));
      }
    }
  }
  (void)c.sim->RunDisaggregated(kQpsPerHost * kHosts, kHosts);
  uint64_t mismatched = 0;
  for (const auto& p : pending) {
    std::vector<float> want;
    bool want_ok = false;
    ref.engine().lookups().Lookup(p->req, [&](Status st, std::vector<float> v, const LookupTrace&) {
      want_ok = st.ok();
      want = std::move(v);
    });
    ref.loop().RunUntilIdle();
    if (!p->done || !p->ok || !want_ok || p->pooled.size() != want.size() ||
        std::memcmp(p->pooled.data(), want.data(), want.size() * sizeof(float)) != 0) {
      ++mismatched;
    }
  }
  if (mismatched > 0) {
    AddFailure(r, std::to_string(mismatched) + " of " + std::to_string(pending.size()) +
                      " pooled lookups differ from the FM-only reference");
  }
  r->notes.push_back("pooled-output check: " + std::to_string(pending.size()) +
                     " lookups on the sharded stack compared bit for bit against an "
                     "FM-only reference, " + std::to_string(mismatched) + " mismatched");
}

}  // namespace

RunResult RunDisaggWorkload(const Options& opt) {
  RunResult r;
  SpeedGauge gauge(kShards);
  std::vector<double> setups;      // at the gauge's reference speed
  std::vector<double> raw_setups;  // the same set-ups as measured
  std::vector<double> rates;       // simulated queries per host-second, per segment, ditto
  std::vector<double> raw_rates;   // the same segments as measured
  const double total_qps = kQpsPerHost * kHosts;
  // A set-up, rescaled by the gauge samples around it.
  const auto timed_build = [&] {
    gauge.Sample();
    Cluster c = BuildCluster(opt.seed, nullptr);
    raw_setups.push_back(c.setup_s);
    setups.push_back(gauge.Rescale(c.setup_s));
    return c;
  };

  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;
  Cluster a = timed_build();
  const PassResult first = RunPass(a, total_qps, kMeasuredPerHost * kHosts, nullptr);
  const double untraced_qps = static_cast<double>(first.ok) / first.host_s;
  CheckPooled(a, opt.seed, &r);
  a = Cluster{};

  r.attempted = first.attempted;
  r.failed = first.failed();
  if (first.failed() != 0 || first.attempted != kMeasuredPerHost * kHosts) {
    AddFailure(&r, std::to_string(first.failed()) + " of " + std::to_string(first.attempted) +
                       " queries failed");
  }

  if (opt.trace) {
    Cluster b = BuildCluster(opt.seed, tr);
    const PassResult traced = RunPass(b, total_qps, kMeasuredPerHost * kHosts, tr);
    CheckIdentical(first.v, traced.v, "traced vs untraced", &r);
    // Replay host 0's inputs through each layer: a generator with the
    // cluster's model and workload shape.
    QueryGenerator regen(DisaggModel(), DisaggBase(opt.seed).workload);
    ReplayInput input;
    SdmStore& store0 = b.runtime().host_store(0);
    for (uint64_t i = 0; i < kMeasuredPerHost; ++i) {
      Query q;
      {
        Scope gen(tr, "trace.gen", i + 1);
        q = regen.Next();
      }
      RecordSmLookups(store0, q, &input);
    }
    ReplayLayers(store0, input, /*with_fabric=*/true, tr);

    for (const auto& [name, value] : first.v) {
      if (name.find('.') != std::string::npos) r.per_layer[name] = value;
    }
    const double run_ns = static_cast<double>(tracer.totals("serving.cluster_run").total_ns);
    r.per_layer["common.ns_per_event"] = Ratio(run_ns, static_cast<double>(traced.events));
    r.per_layer["common.ns_per_window"] = Ratio(run_ns, static_cast<double>(traced.windows));
    r.per_layer["trace.gen_ns_per_query"] = tracer.MeanNs("trace.gen");
    // Submit and Lookup run inside the cluster's workers, out of reach of
    // the benchmark's spans.
    r.per_layer["serving.submit_ns"] = 0;
    r.per_layer["core.lookup_ns"] = 0;
    r.per_layer["core.load_s"] = static_cast<double>(tracer.totals("core.load").total_ns) / 1e9;
    AddReplayMetrics(tracer, &r.per_layer);
    const double traced_qps = static_cast<double>(traced.ok) / traced.host_s;
    r.per_layer["perfbench.trace_overhead_share"] = 1.0 - traced_qps / untraced_qps;
    r.notes.push_back("traced sim_qps " + std::to_string(traced_qps) + " vs untraced " +
                      std::to_string(untraced_qps) + " 1/s");
    if (!opt.trace_out.empty() && !tracer.Write(opt.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
    }
    return r;
  }

  // A back-to-back pass on a fresh cluster must reproduce pass 1 exactly.
  Cluster b = timed_build();
  const PassResult again = RunPass(b, total_qps, kMeasuredPerHost * kHosts, nullptr);
  CheckIdentical(first.v, again.v, "back-to-back pass", &r);

  // sim_qps: short runs at the offered rate on the warmed cluster fill the
  // measuring time, each rescaled by the gauge samples around it; the
  // median over segments rides out what the gauge misses.
  const double t0 = HostNow();
  gauge.Sample();
  do {
    const PassResult seg = RunPass(b, total_qps, kSegmentPerHost * kHosts, nullptr);
    const double ok = static_cast<double>(seg.ok);
    raw_rates.push_back(ok / seg.host_s);
    rates.push_back(ok / gauge.Rescale(seg.host_s));
  } while (HostNow() - t0 < opt.seconds);
  b = Cluster{};

  Cluster c = timed_build();
  // The cluster report's achieved rate divides by the slowest host's span
  // (its Poisson realisation runs several percent long), so it cannot test
  // for a backlog at the 1% level; a growing backlog shows as p99 far over
  // the SLO instead.
  const double max_qps_per_host = FindMaxQpsAtSlo(
      kSweepStartPerHost, static_cast<double>(kSlo.nanos()), [&](double qps_per_host) {
        const PassResult p = RunPass(c, qps_per_host * kHosts, kProbePerHost * kHosts, nullptr);
        Probe probe;
        probe.qps = qps_per_host;
        probe.p99_ns = p.v.at("p99_us") * 1e3;
        probe.passed = probe.p99_ns <= static_cast<double>(kSlo.nanos()) && p.failed() == 0;
        return probe;
      });

  r.end_to_end["setup_s"] = Median(setups);
  r.end_to_end["sim_qps"] = Median(rates);
  r.end_to_end["p50_us"] = first.v.at("p50_us");
  r.end_to_end["p99_us"] = first.v.at("p99_us");
  r.end_to_end["max_qps_at_slo"] = max_qps_per_host;
  r.notes.push_back("p999_us: not reported (the cluster API exposes per-host p50/p95/p99 only)");
  char buf[256];
  std::snprintf(buf, sizeof(buf), "queries_measured = %.0f; failed_share = %.17g [virtual]",
                first.v.at("queries_measured"), first.v.at("failed_share"));
  r.notes.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "offered %.0f 1/s per host x %zu hosts; max_qps_at_slo is per host; "
                "SLO p99 <= %.0f us",
                kQpsPerHost, kHosts, kSlo.micros());
  r.notes.push_back(buf);
  AddGaugeNotes(gauge, rates, raw_rates, setups, raw_setups, &r);
  return r;
}

}  // namespace perfbench
