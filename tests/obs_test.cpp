// Tests for the observability layer (src/obs) and its serving-stack wiring.
//
// Three invariants carry the layer:
//   1. OFF is byte-inert and ON is timing-inert: serving reports are
//      field-identical with observability on or off, in every runtime shape
//      (single host, single-loop disaggregated, sharded, shared tenants).
//   2. Exports are deterministic: the sharded runtime's merged documents are
//      bit-identical for every worker count, and the single-loop path agrees
//      with the sharded path on aggregate counters at serial load (the same
//      oracle sharded_runtime_test pins for serving reports).
//   3. The primitives behave: windows close lazily and stay sparse, span
//      rings bound memory by dropping NEW events, SLO watchdogs debounce and
//      emit both edges through the pluggable log sink.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "dlrm/model_zoo.h"
#include "obs/observability.h"
#include "serving/cluster.h"
#include "serving/host.h"
#include "tenant/multi_tenant_host.h"

namespace sdm {
namespace {

/// Absolute virtual time `d` past the epoch (loops start at SimTime(0)).
constexpr SimTime At(SimDuration d) { return SimTime(0) + d; }

[[nodiscard]] bool Contains(const std::string& doc, const std::string& needle) {
  return doc.find(needle) != std::string::npos;
}

[[nodiscard]] size_t CountOccurrences(const std::string& doc,
                                      const std::string& needle) {
  size_t n = 0;
  for (size_t at = doc.find(needle); at != std::string::npos;
       at = doc.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

/// Sums the per-window values of one counter series in a metrics document.
/// Returns -1 when the series is absent (distinct from an all-zero series).
[[nodiscard]] double SumCounterPoints(const std::string& doc,
                                      const std::string& name) {
  const std::string needle =
      "{\"name\":\"" + name + "\",\"kind\":\"counter\",\"points\":[";
  const size_t at = doc.find(needle);
  if (at == std::string::npos) return -1;
  double total = 0;
  size_t i = at + needle.size();
  while (i < doc.size() && doc[i] == '[') {  // [window_start,value],...
    const size_t comma = doc.find(',', i);
    total += std::strtod(doc.c_str() + comma + 1, nullptr);
    i = doc.find(']', comma) + 1;
    if (i < doc.size() && doc[i] == ',') ++i;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Metrics primitives.
// ---------------------------------------------------------------------------

ObsConfig MetricsOnly() {
  ObsConfig o;
  o.enable_metrics = true;
  o.metrics_interval = Millis(1);
  return o;
}

TEST(ObsMetrics, WindowsCloseLazilyAndSparseWindowsEmitNoPoints) {
  Observability obs(MetricsOnly());
  WindowedCounter* c = ObsCounter(&obs, "t/requests");
  ASSERT_NE(c, nullptr);
  c->Add(At(Micros(100)));
  c->Add(At(Micros(900)));
  // Window 1 sees no traffic: it must not appear in the series at all.
  c->Add(At(Millis(2) + Micros(500)));
  obs.Finalize();
  const std::string doc = obs.MetricsJson();
  EXPECT_TRUE(Contains(doc,
                       "{\"name\":\"t/requests\",\"kind\":\"counter\","
                       "\"points\":[[0,2],[2000000,1]]}"))
      << doc;
}

TEST(ObsMetrics, SameNameResolvesToTheSameHandle) {
  Observability obs(MetricsOnly());
  EXPECT_EQ(obs.metrics()->Counter("x"), obs.metrics()->Counter("x"));
  EXPECT_EQ(obs.metrics()->Gauge("g"), obs.metrics()->Gauge("g"));
  EXPECT_EQ(obs.metrics()->Hist("h"), obs.metrics()->Hist("h"));
}

TEST(ObsMetrics, HistogramWindowsResetBetweenWindows) {
  Observability obs(MetricsOnly());
  WindowedHistogram* h = ObsHist(&obs, "t/latency_ns");
  for (int i = 0; i < 4; ++i) h->Record(At(Micros(10 * (i + 1))), Micros(100));
  h->Record(At(Millis(1) + Micros(10)), Micros(900));
  obs.Finalize();
  const std::string doc = obs.MetricsJson();
  // Points are [window_start, count, mean, p50, p95, p99, max]: window 0
  // holds four 100us samples, window 1 exactly one 900us sample — the
  // second window's count proves per-window reset, its mean proves the
  // first window's samples did not leak forward.
  EXPECT_TRUE(Contains(doc, "\"kind\":\"hist\",\"points\":[[0,4,100")) << doc;
  EXPECT_TRUE(Contains(doc, "],[1000000,1,9")) << doc;
}

TEST(ObsMetrics, FinalizeIsIdempotent) {
  Observability obs(MetricsOnly());
  ObsCounter(&obs, "t/requests")->Add(At(Micros(1)));
  obs.Finalize();
  const std::string once = obs.MetricsJson();
  obs.Finalize();
  EXPECT_EQ(obs.MetricsJson(), once);
}

TEST(ObsMetrics, HandlesAreNullWhenSubsystemIsOff) {
  ObsConfig off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(ObsCounter(nullptr, "x"), nullptr);
  ObsConfig trace_only;
  trace_only.enable_tracing = true;
  Observability obs(trace_only);
  EXPECT_EQ(obs.metrics(), nullptr);
  EXPECT_EQ(ObsHist(&obs, "x"), nullptr);
  EXPECT_NE(ObsSpans(&obs), nullptr);
}

// ---------------------------------------------------------------------------
// Span recorder.
// ---------------------------------------------------------------------------

TEST(ObsSpans, ExportsChromeTraceEventsWithArgs) {
  SpanRecorder rec(/*sample_every=*/1, /*max_events=*/16);
  const SpanRecorder::TrackId q = rec.Track("host0", "queries");
  const SpanRecorder::TrackId l = rec.Track("host0", "lookup");
  rec.Span(q, "query", At(Micros(1)), At(Micros(5)), "{\"rows\":3}");
  rec.Instant(l, "join", At(Micros(2)));
  const std::vector<const SpanRecorder*> recs = {&rec};
  const std::string doc = SpanRecorder::ExportChromeTrace(recs);
  EXPECT_TRUE(Contains(doc, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
  EXPECT_TRUE(Contains(doc, "\"ph\":\"b\"")) << doc;
  EXPECT_TRUE(Contains(doc, "\"ph\":\"e\"")) << doc;
  EXPECT_TRUE(Contains(doc, "\"ph\":\"i\"")) << doc;
  EXPECT_TRUE(Contains(doc, "\"name\":\"query\"")) << doc;
  EXPECT_TRUE(Contains(doc, "{\"rows\":3}")) << doc;
}

TEST(ObsSpans, ExportDoesNotDependOnTrackRegistrationOrder) {
  // pids/tids are assigned from SORTED names at export, so two recorders
  // that interned their tracks in opposite order emit identical bytes.
  SpanRecorder a(1, 16), b(1, 16);
  const auto a_q = a.Track("host0", "queries");
  const auto a_l = a.Track("host0", "lookup");
  const auto b_l = b.Track("host0", "lookup");
  const auto b_q = b.Track("host0", "queries");
  a.Span(a_q, "query", At(Micros(1)), At(Micros(5)));
  a.Span(a_l, "lookup", At(Micros(2)), At(Micros(4)));
  b.Span(b_q, "query", At(Micros(1)), At(Micros(5)));
  b.Span(b_l, "lookup", At(Micros(2)), At(Micros(4)));
  const std::vector<const SpanRecorder*> ra = {&a};
  const std::vector<const SpanRecorder*> rb = {&b};
  EXPECT_EQ(SpanRecorder::ExportChromeTrace(ra),
            SpanRecorder::ExportChromeTrace(rb));
}

TEST(ObsSpans, RingDropsNewEventsWhenFullAndCountsThem) {
  SpanRecorder rec(1, /*max_events=*/2);
  const auto t = rec.Track("host0", "queries");
  rec.Span(t, "q1", At(Micros(1)), At(Micros(2)));
  rec.Span(t, "q2", At(Micros(3)), At(Micros(4)));
  rec.Span(t, "q3", At(Micros(5)), At(Micros(6)));  // dropped, not evicting
  EXPECT_EQ(rec.event_count(), 2u);
  EXPECT_EQ(rec.dropped(), 1u);
  const std::vector<const SpanRecorder*> recs = {&rec};
  const std::string doc = SpanRecorder::ExportChromeTrace(recs);
  EXPECT_TRUE(Contains(doc, "\"name\":\"q1\""));
  EXPECT_FALSE(Contains(doc, "\"name\":\"q3\""));
}

// ---------------------------------------------------------------------------
// SLO watchdog.
// ---------------------------------------------------------------------------

TEST(ObsSlo, DebouncesFiresOnceAndClearsThroughTheLogSink) {
  ObsConfig o = MetricsOnly();
  SloRule rule;
  rule.name = "err-rate";
  rule.metric = "t/errors";
  rule.stat = SloRule::Stat::kValue;
  rule.op = SloRule::Op::kAbove;
  rule.threshold = 5;
  rule.for_windows = 2;
  o.slo_rules = {rule};
  Observability obs(o);
  ASSERT_NE(obs.slo(), nullptr);

  std::vector<std::string> warns;
  SetLogSink([&](LogLevel level, const char*, int, const std::string& msg) {
    if (level == LogLevel::kWarn) warns.push_back(msg);
  });
  WindowedCounter* errors = ObsCounter(&obs, "t/errors");
  // Window 0: 10 errors (breach #1 — debounced, no event yet).
  for (int i = 0; i < 10; ++i) errors->Add(At(Micros(i + 1)));
  // Window 1: 10 errors (breach #2 — fires when the window closes).
  for (int i = 0; i < 10; ++i) errors->Add(At(Millis(1) + Micros(i + 1)));
  // Window 2: 1 error (below threshold — clears when the window closes).
  errors->Add(At(Millis(2) + Micros(1)));
  obs.Finalize();
  SetLogSink({});  // restore stderr

  const std::vector<SloEvent>& events = obs.slo()->events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(events[0].fired);
  EXPECT_EQ(events[0].rule, "err-rate");
  EXPECT_EQ(events[0].consecutive, 2);
  EXPECT_DOUBLE_EQ(events[0].value, 10);
  EXPECT_FALSE(events[1].fired);
  EXPECT_EQ(obs.slo()->firing(), 0u);
  // Both edges went through the pluggable sink at WARN.
  ASSERT_EQ(warns.size(), 2u);
  EXPECT_TRUE(Contains(warns[0], "err-rate"));
  // And the export carries them in order.
  const std::string doc = obs.SloJson();
  EXPECT_TRUE(Contains(doc, "\"rule\":\"err-rate\"")) << doc;
  EXPECT_TRUE(Contains(doc, "\"fired\":true")) << doc;
  EXPECT_TRUE(Contains(doc, "\"fired\":false")) << doc;
}

// ---------------------------------------------------------------------------
// Serving-stack wiring: the on/off byte-identity and export determinism.
// ---------------------------------------------------------------------------

/// The sharded_runtime_test profile: batching delay off so the single-loop
/// and sharded schedulers flush identically under serial load.
HostSimConfig ObsHostConfig() {
  HostSimConfig cfg;
  cfg.host = MakeHwFAO(2);
  cfg.fm_capacity = 4 * kMiB;
  cfg.sm_backing_per_device = 32 * kMiB;
  cfg.workload.num_users = 2000;
  cfg.workload.seed = 11;
  cfg.seed = 11;
  cfg.tuning.sub_block_reads = false;
  cfg.tuning.enable_row_cache = false;
  cfg.tuning.max_batch_delay = SimDuration(0);
  cfg.tuning.fabric_latency = Micros(5);
  cfg.inference.max_concurrent_queries = 32;
  return cfg;
}

ModelConfig ObsModel() {
  ModelConfig model = MakeTinyUniformModel(64, 3, 1, 40'000);
  model.tables.back().num_rows = 4'000;  // item side stays FM-direct
  for (auto& t : model.tables) {
    if (t.role == TableRole::kUser) t.zipf_alpha = 1.1;
  }
  return model;
}

/// Full-fat observability: metrics + trace-every-query + one rule that is
/// guaranteed to fire (any completed query has p99 latency above 1ns).
ObsConfig FullObs() {
  ObsConfig o;
  o.enable_metrics = true;
  o.metrics_interval = Millis(1);
  o.enable_tracing = true;
  o.trace_sample_every = 1;
  SloRule rule;
  rule.name = "query-p99";
  rule.metric = "host0/query/latency_ns";
  rule.stat = SloRule::Stat::kP99;
  rule.op = SloRule::Op::kAbove;
  rule.threshold = 1;
  o.slo_rules = {rule};
  return o;
}

/// Field-by-field equality of two host reports — the whole struct, because
/// "timing-inert when on" means not one counter may move.
void ExpectHostReportsEqual(const HostRunReport& a, const HostRunReport& b) {
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.queries_served, b.queries_served);
  EXPECT_DOUBLE_EQ(a.achieved_qps, b.achieved_qps);
  EXPECT_EQ(a.p50.nanos(), b.p50.nanos());
  EXPECT_EQ(a.p95.nanos(), b.p95.nanos());
  EXPECT_EQ(a.p99.nanos(), b.p99.nanos());
  EXPECT_EQ(a.mean.nanos(), b.mean.nanos());
  EXPECT_DOUBLE_EQ(a.row_cache_hit_rate, b.row_cache_hit_rate);
  EXPECT_DOUBLE_EQ(a.pooled_hit_rate, b.pooled_hit_rate);
  EXPECT_DOUBLE_EQ(a.sm_iops, b.sm_iops);
  EXPECT_DOUBLE_EQ(a.sm_read_amplification, b.sm_read_amplification);
  EXPECT_EQ(a.cross_request_merges, b.cross_request_merges);
  EXPECT_EQ(a.singleflight_hits, b.singleflight_hits);
  EXPECT_DOUBLE_EQ(a.batch_occupancy, b.batch_occupancy);
  EXPECT_EQ(a.prefetch_issued, b.prefetch_issued);
  EXPECT_DOUBLE_EQ(a.prefetch_hit_rate, b.prefetch_hit_rate);
  EXPECT_EQ(a.prefetch_wasted_bytes, b.prefetch_wasted_bytes);
  EXPECT_EQ(a.io_errors, b.io_errors);
  EXPECT_EQ(a.io_retries, b.io_retries);
  EXPECT_EQ(a.deadline_expired, b.deadline_expired);
  EXPECT_EQ(a.hedges_issued, b.hedges_issued);
  EXPECT_EQ(a.hedges_won, b.hedges_won);
  EXPECT_EQ(a.queries_degraded, b.queries_degraded);
  EXPECT_EQ(a.rows_failed, b.rows_failed);
  EXPECT_EQ(a.lookups_shed, b.lookups_shed);
  EXPECT_EQ(a.blocks_corrupt, b.blocks_corrupt);
  EXPECT_EQ(a.replica_reads, b.replica_reads);
  EXPECT_EQ(a.read_repairs, b.read_repairs);
  EXPECT_EQ(a.extents_replicated, b.extents_replicated);
  EXPECT_EQ(a.avg_cpu_per_query.nanos(), b.avg_cpu_per_query.nanos());
}

TEST(ObsServing, SingleHostReportIsByteIdenticalWithObsOnAndOff) {
  const ModelConfig model = ObsModel();
  const HostSimConfig off = ObsHostConfig();
  HostSimConfig on = off;
  on.tuning.obs = FullObs();

  HostSimulation a(off);
  HostSimulation b(on);
  ASSERT_TRUE(a.LoadModel(model).ok());
  ASSERT_TRUE(b.LoadModel(model).ok());
  const HostRunReport ra = a.Run(/*target_qps=*/800, /*num_queries=*/500);
  const HostRunReport rb = b.Run(800, 500);
  ExpectHostReportsEqual(ra, rb);

  // Off exports nothing; on exports every layer under the host0/ prefix.
  EXPECT_EQ(a.ObsMetricsJson(), "{}");
  EXPECT_EQ(a.ObsTraceJson(), "{}");
  const std::string metrics = b.ObsMetricsJson();
  EXPECT_TRUE(Contains(metrics, "host0/query/requests")) << metrics;
  EXPECT_TRUE(Contains(metrics, "host0/query/latency_ns"));
  EXPECT_TRUE(Contains(metrics, "host0/lookup/requests"));
  EXPECT_TRUE(Contains(metrics, "host0/dev0/sched/"));
  EXPECT_EQ(SumCounterPoints(metrics, "host0/query/requests"),
            static_cast<double>(rb.queries_completed));
  const std::string trace = b.ObsTraceJson();
  EXPECT_TRUE(Contains(trace, "\"traceEvents\":["));
  EXPECT_TRUE(Contains(trace, "\"name\":\"query\""));
  EXPECT_TRUE(Contains(trace, "\"name\":\"lookup\""));
  EXPECT_TRUE(Contains(b.ObsSloJson(), "query-p99"));
}

TEST(ObsServing, TraceSamplingBoundsSpanVolumeDeterministically) {
  const ModelConfig model = ObsModel();
  HostSimConfig every = ObsHostConfig();
  every.tuning.obs.enable_tracing = true;
  HostSimConfig tenth = ObsHostConfig();
  tenth.tuning.obs.enable_tracing = true;
  tenth.tuning.obs.trace_sample_every = 10;

  HostSimulation a(every);
  HostSimulation b(tenth);
  ASSERT_TRUE(a.LoadModel(model).ok());
  ASSERT_TRUE(b.LoadModel(model).ok());
  (void)a.Run(800, 500);
  (void)b.Run(800, 500);
  const size_t all = CountOccurrences(a.ObsTraceJson(), "\"name\":\"query\"");
  const size_t sampled = CountOccurrences(b.ObsTraceJson(), "\"name\":\"query\"");
  EXPECT_EQ(all, 2u * 500u);  // one "b" + one "e" record per span
  EXPECT_EQ(sampled, 2u * 50u);
}

// ---------------------------------------------------------------------------
// Cluster shapes.
// ---------------------------------------------------------------------------

struct ClusterRun {
  DisaggregatedRunReport report;
  std::string metrics;
  std::string trace;
  std::string slo;
};

ClusterRun RunClusterObs(size_t hosts, const HostSimConfig& cfg,
                         size_t num_shards, double qps, uint64_t queries) {
  DisaggregatedConfig dc;
  dc.enabled = true;
  dc.num_shards = num_shards;
  ClusterSimulation cluster(hosts, cfg, RoutingPolicy::kUserSticky, dc);
  EXPECT_TRUE(cluster.LoadModel(ObsModel()).ok());
  ClusterRun out;
  out.report = cluster.RunDisaggregated(qps, queries);
  out.metrics = cluster.ObsMetricsJson();
  out.trace = cluster.ObsTraceJson();
  out.slo = cluster.ObsSloJson();
  return out;
}

/// The subset of DisaggregatedRunReport the obs on/off identity pins (the
/// full-field version lives in sharded_runtime_test; this covers every
/// family the instrumentation touches).
void ExpectClusterReportsEqual(const DisaggregatedRunReport& a,
                               const DisaggregatedRunReport& b) {
  ASSERT_EQ(a.hosts.size(), b.hosts.size());
  for (size_t i = 0; i < a.hosts.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "host " << i);
    ExpectHostReportsEqual(a.hosts[i].run, b.hosts[i].run);
  }
  EXPECT_EQ(a.sm_device_reads, b.sm_device_reads);
  EXPECT_EQ(a.io.device_reads, b.io.device_reads);
  EXPECT_EQ(a.io.cross_request_merges, b.io.cross_request_merges);
  EXPECT_EQ(a.io.singleflight_hits, b.io.singleflight_hits);
  EXPECT_EQ(a.cross_host_hits, b.cross_host_hits);
  EXPECT_EQ(a.fabric.requests, b.fabric.requests);
  EXPECT_EQ(a.fabric.responses, b.fabric.responses);
  EXPECT_EQ(a.fabric.request_bytes, b.fabric.request_bytes);
  EXPECT_EQ(a.fabric.response_bytes, b.fabric.response_bytes);
}

TEST(ObsServing, DisaggregatedReportIsByteIdenticalWithObsOnAndOff) {
  const HostSimConfig off = ObsHostConfig();
  HostSimConfig on = off;
  on.tuning.obs = FullObs();
  // Single-loop and sharded runtimes, both pinned.
  for (const size_t shards : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(testing::Message() << "num_shards " << shards);
    const ClusterRun ro = RunClusterObs(2, off, shards, 400, 600);
    const ClusterRun rx = RunClusterObs(2, on, shards, 400, 600);
    ExpectClusterReportsEqual(ro.report, rx.report);
    EXPECT_EQ(ro.metrics, "{}");
    EXPECT_TRUE(Contains(rx.metrics, "host1/query/requests")) << rx.metrics;
    EXPECT_TRUE(Contains(rx.trace, "\"name\":\"query\""));
  }
}

TEST(ObsServing, ShardedExportsAreBitIdenticalAcrossWorkerCounts) {
  HostSimConfig cfg = ObsHostConfig();
  cfg.tuning.obs = FullObs();
  // High load — real cross-host overlap, thousands of cross-LP messages —
  // yet the merged documents must not move by one byte with worker count.
  const ClusterRun k2 = RunClusterObs(2, cfg, 2, 2000, 1500);
  const ClusterRun k3 = RunClusterObs(2, cfg, 3, 2000, 1500);
  const ClusterRun k4 = RunClusterObs(2, cfg, 4, 2000, 1500);
  EXPECT_EQ(k2.metrics, k3.metrics);
  EXPECT_EQ(k2.metrics, k4.metrics);
  EXPECT_EQ(k2.trace, k3.trace);
  EXPECT_EQ(k2.trace, k4.trace);
  EXPECT_EQ(k2.slo, k3.slo);
  EXPECT_EQ(k2.slo, k4.slo);
  // The documents carry both sides of the split fabric instrumentation.
  EXPECT_TRUE(Contains(k2.metrics, "host0/dev0/fabric/")) << k2.metrics;
  EXPECT_TRUE(Contains(k2.metrics, "svc/host0/dev0/fabric/"));
}

TEST(ObsServing, SerialLoadSingleLoopAndShardedAgreeOnAggregates) {
  // The single-loop determinism oracle, extended to the metric plane: under
  // serial load the host-side counters (queries, lookups, rows) must agree
  // exactly between the two runtimes. Device/scheduler metric NAMES differ
  // structurally between the shapes (single-loop hosts own scheduler slices
  // under host<i>/, the sharded device shard records under svc/), so the
  // comparison pins the host-plane series that exist in both.
  HostSimConfig cfg = ObsHostConfig();
  cfg.tuning.obs = FullObs();
  const ClusterRun single = RunClusterObs(2, cfg, 1, 2.0, 120);
  const ClusterRun sharded = RunClusterObs(2, cfg, 2, 2.0, 120);
  ExpectClusterReportsEqual(single.report, sharded.report);
  uint64_t completed = 0;
  for (const auto& h : single.report.hosts) completed += h.run.queries_completed;
  double single_total = 0, sharded_total = 0;
  for (const std::string host : {"host0/", "host1/"}) {
    for (const std::string series :
         {"query/requests", "lookup/requests", "lookup/sm_rows"}) {
      SCOPED_TRACE(host + series);
      const double s = SumCounterPoints(single.metrics, host + series);
      const double k = SumCounterPoints(sharded.metrics, host + series);
      EXPECT_GE(s, 0) << "series missing from single-loop export";
      EXPECT_EQ(s, k);
    }
    single_total += SumCounterPoints(single.metrics, host + "query/requests");
    sharded_total += SumCounterPoints(sharded.metrics, host + "query/requests");
  }
  EXPECT_EQ(single_total, static_cast<double>(completed));
  EXPECT_EQ(sharded_total, static_cast<double>(completed));
  // Query spans are host-plane too: same sampled population in both shapes.
  EXPECT_EQ(CountOccurrences(single.trace, "\"name\":\"query\""),
            CountOccurrences(sharded.trace, "\"name\":\"query\""));
}

TEST(ObsServing, SharedTenantsReportIsByteIdenticalWithObsOnAndOff) {
  HostSimConfig base = ObsHostConfig();
  base.fm_capacity = 24 * kMiB;
  HostSimConfig on = base;
  on.tuning.obs.enable_metrics = true;
  on.tuning.obs.enable_tracing = true;

  const ModelConfig model = MakeTinyUniformModel(64, 2, 1, 40'000);
  MultiTenantHost a(base, 77, /*shared_device=*/true);
  MultiTenantHost b(on, 77, /*shared_device=*/true);
  for (MultiTenantHost* h : {&a, &b}) {
    ASSERT_TRUE(h->AddTenant(model, 4 * kMiB, TenantClass::kForeground).ok());
    ASSERT_TRUE(h->AddTenant(model, 4 * kMiB, TenantClass::kBackground).ok());
  }
  const MultiTenantReport ra = a.Run(/*qps_per_tenant=*/200, /*queries=*/300);
  const MultiTenantReport rb = b.Run(200, 300);
  ASSERT_EQ(ra.tenants.size(), rb.tenants.size());
  for (size_t i = 0; i < ra.tenants.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "tenant " << i);
    ExpectHostReportsEqual(ra.tenants[i].run, rb.tenants[i].run);
    EXPECT_EQ(ra.tenants[i].share.demand_bytes, rb.tenants[i].share.demand_bytes);
    EXPECT_EQ(ra.tenants[i].share.background_bytes, rb.tenants[i].share.background_bytes);
  }
  EXPECT_EQ(ra.sm_device_reads, rb.sm_device_reads);
  EXPECT_EQ(a.ObsMetricsJson(), "{}");
  const std::string metrics = b.ObsMetricsJson();
  EXPECT_TRUE(Contains(metrics, "tenant0/query/requests")) << metrics;
  EXPECT_TRUE(Contains(metrics, "tenant1/query/requests"));
  EXPECT_TRUE(Contains(metrics, "svc/"));
}

// ---------------------------------------------------------------------------
// Export stability: the lint-time ordered-exports invariant, pinned at
// runtime. Every Obs*Json accessor must be a pure fold over ordered state —
// exporting twice, or exporting from a byte-identical fresh run, yields the
// exact same document. A hash-ordered container anywhere in the export
// pipeline would break one of these equalities.
// ---------------------------------------------------------------------------

TEST(ObsExportStability, ClusterExportsRepeatAndReproduceByteIdentically) {
  HostSimConfig cfg = ObsHostConfig();
  cfg.tuning.obs = FullObs();
  DisaggregatedConfig dc;
  dc.enabled = true;
  std::string first_metrics, first_trace, first_slo;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    ClusterSimulation cluster(2, cfg, RoutingPolicy::kUserSticky, dc);
    ASSERT_TRUE(cluster.LoadModel(ObsModel()).ok());
    (void)cluster.RunDisaggregated(400, 600);
    const std::string m = cluster.ObsMetricsJson();
    const std::string t = cluster.ObsTraceJson();
    const std::string s = cluster.ObsSloJson();
    EXPECT_FALSE(m == "{}");
    // Re-exporting moves no bytes...
    EXPECT_EQ(cluster.ObsMetricsJson(), m);
    EXPECT_EQ(cluster.ObsTraceJson(), t);
    EXPECT_EQ(cluster.ObsSloJson(), s);
    if (round == 0) {
      first_metrics = m;
      first_trace = t;
      first_slo = s;
    } else {
      // ...and neither does running the identical simulation again.
      EXPECT_EQ(m, first_metrics);
      EXPECT_EQ(t, first_trace);
      EXPECT_EQ(s, first_slo);
    }
  }
}

TEST(ObsExportStability, MultiTenantExportsRepeatAndReproduceByteIdentically) {
  HostSimConfig cfg = ObsHostConfig();
  cfg.fm_capacity = 24 * kMiB;
  cfg.tuning.obs = FullObs();
  const ModelConfig model = MakeTinyUniformModel(64, 2, 1, 40'000);
  std::string first_metrics, first_trace;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    MultiTenantHost host(cfg, 77, /*shared_device=*/true);
    ASSERT_TRUE(host.AddTenant(model, 4 * kMiB, TenantClass::kForeground).ok());
    ASSERT_TRUE(host.AddTenant(model, 4 * kMiB, TenantClass::kBackground).ok());
    (void)host.Run(/*qps_per_tenant=*/200, /*queries=*/300);
    const std::string m = host.ObsMetricsJson();
    const std::string t = host.ObsTraceJson();
    EXPECT_FALSE(m == "{}");
    EXPECT_EQ(host.ObsMetricsJson(), m);
    EXPECT_EQ(host.ObsTraceJson(), t);
    if (round == 0) {
      first_metrics = m;
      first_trace = t;
    } else {
      EXPECT_EQ(m, first_metrics);
      EXPECT_EQ(t, first_trace);
    }
  }
}

}  // namespace
}  // namespace sdm
