// Table 11 reproduction: multi-tenancy through SDM (§5.3) — now on the
// real shared-device path (src/tenant).
//
// Paper: experimental models run at low per-model QPS and leave accelerator
// hosts memory-capacity-bound at 63% utilization. Adding Optane SM lets
// more models co-locate, lifting utilization to 90% at +1% host power:
//   HW-FA       power 1.0,  util 0.63, fleet power 1.0
//   HW-FAO+SDM  power 1.01, util 0.90, fleet power 0.71   (29% saving)
//
// This bench drives the mechanism behind that claim at IO granularity:
// tenants serving the same base model (A/B variants) co-locate on ONE
// device stack, their table content dedups to shared extents, and their
// overlapping hot sets single-flight in the shared BatchScheduler —
// versus the isolated baseline where every tenant runs a private stack.
// A QoS-mix section adds background-class tenants and checks the
// foreground p99 they are NOT allowed to destroy.
//
// Headline --json metrics (gated in CI against bench/baselines/
// multitenant.json):
//   cN_read_reduction_x : isolated device reads / shared device reads
//   fg_p99_ratio        : fg-only p99 / fg p99 with background tenants added
#include <cstdio>

#include "bench_util.h"
#include "dlrm/model_zoo.h"
#include "serving/cluster.h"

using namespace sdm;

namespace {

HostSimConfig BaseConfig() {
  HostSimConfig base;
  base.host = MakeHwFAO(2);
  base.fm_capacity = 24 * kMiB;  // host FM pool (scaled)
  base.sm_backing_per_device = 64 * kMiB;
  base.workload.num_users = 2000;
  base.workload.seed = 11;
  base.seed = 11;
  // Widen the cross-request merge window a little: co-located tenants miss
  // the same hot blocks within tens of microseconds of each other, not in
  // the same instant.
  base.tuning.max_batch_delay = Micros(200);
  // Block-granularity reads: one tenant's 4KiB block read covers ~60 rows
  // that co-located tenants' misses then join — the paper's "share each
  // other's hot blocks" claim at its natural granularity.
  base.tuning.sub_block_reads = false;
  // Experimental shards serve user embeddings straight from SM: FM shares
  // this small leave no useful row-cache, so the hot set lives at the
  // device and co-location either shares it or pays for it N times.
  base.tuning.enable_row_cache = false;
  return base;
}

/// Physical SM device reads across the host, both modes.
uint64_t TotalDeviceReads(MultiTenantHost& host) {
  if (host.shared_device()) {
    uint64_t reads = 0;
    for (size_t d = 0; d < host.service()->device_count(); ++d) {
      reads += host.service()->device(d).stats().CounterValue("reads");
    }
    return reads;
  }
  uint64_t reads = 0;
  for (size_t i = 0; i < host.tenant_count(); ++i) {
    SdmStore& store = host.tenant_store(i);
    for (size_t d = 0; d < store.sm_device_count(); ++d) {
      reads += store.sm_device(d).stats().CounterValue("reads");
    }
  }
  return reads;
}

struct SweepPoint {
  MultiTenantReport report;
  uint64_t device_reads = 0;
  double fg_p99_ms = 0;   ///< mean p99 over foreground tenants
  double fg_qps = 0;      ///< aggregate foreground achieved QPS
};

/// Co-locates `foreground` + `background` tenants of the same base model
/// and runs one measured pass.
SweepPoint RunTenants(bool shared, int foreground, int background, double qps,
                      uint64_t queries) {
  const HostSimConfig base = BaseConfig();
  MultiTenantHost host(base, /*seed=*/0x7e, shared);
  // Capacity-bound tenants (the §5.3 premise): user tables far larger than
  // the FM share, so the row cache cannot hold the hot set and hot-block
  // misses recur — the traffic co-location must absorb. The item table is
  // kept small so the FM share is spent on cache, not direct tables.
  ModelConfig model = MakeTinyUniformModel(64, 3, 1, 40'000);
  model.tables.back().num_rows = 4'000;  // item side stays FM-direct
  // Production user-table skew (Fig. 4: most accesses concentrate in few
  // rows). The hot blocks this concentrates are exactly what co-located
  // tenants can share.
  for (auto& tc : model.tables) {
    if (tc.role == TableRole::kUser) tc.zipf_alpha = 1.1;
  }
  const Bytes fm_share = 1 * kMiB;
  for (int i = 0; i < foreground; ++i) {
    if (Status s = host.AddTenant(model, fm_share, TenantClass::kForeground); !s.ok()) {
      std::fprintf(stderr, "tenant load failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  for (int i = 0; i < background; ++i) {
    if (Status s = host.AddTenant(model, fm_share, TenantClass::kBackground); !s.ok()) {
      std::fprintf(stderr, "tenant load failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  SweepPoint pt;
  const uint64_t reads0 = TotalDeviceReads(host);
  pt.report = host.Run(qps, queries);
  pt.device_reads = TotalDeviceReads(host) - reads0;
  int fg = 0;
  for (const auto& t : pt.report.tenants) {
    if (t.cls != TenantClass::kForeground) continue;
    pt.fg_p99_ms += t.run.p99.millis();
    pt.fg_qps += t.run.achieved_qps;
    ++fg;
  }
  if (fg > 0) pt.fg_p99_ms /= fg;
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  bench::QuietLogs quiet;
  bench::JsonReporter json(argc, argv, "table11_multitenancy");

  constexpr double kQps = 8000;
  constexpr uint64_t kQueries = 3000;

  // ---- Isolated vs shared device stack, tenant-count sweep ---------------
  bench::Section("shared-device co-location — isolated stacks vs one SharedDeviceService");
  bench::Table t({"tenants", "mode", "device reads", "sf hits", "x-tenant", "fg p99 ms",
                  "SM MiB (phys/logical)", "read reduction"});
  for (const int tenants : {2, 4, 6}) {
    const SweepPoint iso = RunTenants(false, tenants, 0, kQps, kQueries);
    const SweepPoint sh = RunTenants(true, tenants, 0, kQps, kQueries);
    uint64_t xt = 0;
    for (const auto& tr : sh.report.tenants) xt += tr.share.cross_tenant_hits;
    // Isolated mode still single-flights WITHIN each tenant (per-host
    // scheduler); only cross-tenant sharing is impossible there.
    uint64_t iso_sf = 0;
    for (const auto& tr : iso.report.tenants) iso_sf += tr.run.singleflight_hits;
    const double reduction = sh.device_reads == 0
                                 ? 0
                                 : static_cast<double>(iso.device_reads) /
                                       static_cast<double>(sh.device_reads);
    t.Row(tenants, "isolated", iso.device_reads, iso_sf,
          uint64_t{0}, iso.fg_p99_ms,
          bench::Fmt("%.1f / %.1f", AsMiB(iso.report.sm_unique_bytes),
                     AsMiB(iso.report.sm_logical_bytes)),
          "1.00");
    t.Row(tenants, "shared", sh.device_reads, sh.report.io.singleflight_hits, xt,
          sh.fg_p99_ms,
          bench::Fmt("%.1f / %.1f", AsMiB(sh.report.sm_unique_bytes),
                     AsMiB(sh.report.sm_logical_bytes)),
          bench::Fmt("%.2f", reduction));
    json.Metric(bench::Fmt("c%d_read_reduction_x", tenants), reduction);
    json.Metric(bench::Fmt("c%d_cross_tenant_hits", tenants), xt);
    if (tenants == 4) {
      json.Metric("c4_dedup_saved_mib", AsMiB(sh.report.sm_logical_bytes -
                                              sh.report.sm_unique_bytes));
    }
  }
  t.Print();
  bench::Note("same base model across tenants (A/B variants): identical tables dedup");
  bench::Note("to shared extents, so overlapping hot-set misses single-flight across");
  bench::Note("store boundaries. Isolated mode issues every tenant's reads privately —");
  bench::Note("and over-provisions hardware (N private 2-SSD stacks vs ONE shared one),");
  bench::Note("so the comparable metric is device reads; shared mode also holds its p99");
  bench::Note("on a quarter (or sixth) of the devices.");

  // ---- QoS mix: background tenants must not starve foreground p99 --------
  bench::Section("QoS lanes — adding background tenants to a foreground pair");
  const SweepPoint fg_only = RunTenants(true, 2, 0, kQps, kQueries);
  const SweepPoint mixed = RunTenants(true, 2, 2, kQps, kQueries);
  double bg_p99 = 0;
  int bg_n = 0;
  for (const auto& tr : mixed.report.tenants) {
    if (tr.cls == TenantClass::kBackground) {
      bg_p99 += tr.run.p99.millis();
      ++bg_n;
    }
  }
  if (bg_n > 0) bg_p99 /= bg_n;
  bench::Table q({"config", "fg p99 ms", "bg p99 ms", "bg reads", "bg parked",
                  "bg promoted"});
  q.Row("2 fg", fg_only.fg_p99_ms, 0.0, fg_only.report.io.background_reads,
        fg_only.report.io.background_parked, fg_only.report.io.background_promoted);
  q.Row("2 fg + 2 bg", mixed.fg_p99_ms, bg_p99, mixed.report.io.background_reads,
        mixed.report.io.background_parked, mixed.report.io.background_promoted);
  q.Print();
  const double fg_p99_ratio =
      mixed.fg_p99_ms == 0 ? 0 : fg_only.fg_p99_ms / mixed.fg_p99_ms;
  bench::Note(bench::Fmt(
      "fg p99 ratio (fg-only / mixed) %.2f — background demand rides the byte-"
      "budgeted lane (parked under pressure, promoted on fg overlap), so doubling "
      "tenancy with background scorers costs foreground %.0f%% p99",
      fg_p99_ratio, (1 / std::max(fg_p99_ratio, 1e-9) - 1) * 100));
  json.Metric("fg_p99_ratio", fg_p99_ratio);
  json.Metric("bg_reads", mixed.report.io.background_reads);
  for (const auto& tr : mixed.report.tenants) {
    bench::Note(tr.Summary());
  }

  // ---- Feasibility: the tenant set does not fit in FM without SM ---------
  bench::Section("capacity — the co-located set needs SM (§5.3 setup)");
  bench::Table f2({"tenant", "QPS", "p95 ms", "hit %", "FM share MiB", "SM MiB"});
  Bytes sm_total = 0;
  for (const auto& tr : mixed.report.tenants) {
    f2.Row(tr.model_name, tr.run.achieved_qps, tr.run.p95.millis(),
           tr.run.row_cache_hit_rate * 100, AsMiB(tr.fm_used), AsMiB(tr.sm_used));
    sm_total += tr.sm_used;
  }
  f2.Print();
  bench::Note(bench::Fmt(
      "FM used %.1f / %.1f MiB; the tenant set needs %.1f MiB more than the host "
      "FM without SM (fits without SM: %s); extent dedup keeps physical SM at "
      "%.1f of %.1f logical MiB",
      AsMiB(mixed.report.fm_total), AsMiB(mixed.report.fm_capacity),
      AsMiB(mixed.report.fm_total + sm_total) - AsMiB(mixed.report.fm_capacity),
      mixed.report.fits_in_fm ? "yes" : "NO", AsMiB(mixed.report.sm_unique_bytes),
      AsMiB(mixed.report.sm_logical_bytes)));

  // ---- Table 11 roofline -------------------------------------------------
  bench::Section("Table 11 — fleet perf/watt roofline");
  MultiTenancyScenario sc;  // paper numbers: 0.63 -> 0.90 util, power 1.0 -> 1.01
  const MultiTenancyEstimate e = EvaluateMultiTenancy(sc);
  bench::Table f({"Scenario", "Power", "Utilization", "fleet power", "paper"});
  f.Row("HW-FA", sc.base_host_power, sc.base_utilization, 1.0, "1.0 / 0.63 / 1.0");
  f.Row("HW-FAO + SDM", sc.sdm_host_power, sc.sdm_utilization, e.fleet_power_ratio,
        "1.01 / 0.90 / 0.71");
  f.Print();
  bench::Note(bench::Fmt("fleet power ratio %.2f -> %.0f%% power saving (paper: 29%%), "
                         "perf/watt +%.0f%%",
                         e.fleet_power_ratio, (1 - e.fleet_power_ratio) * 100,
                         e.perf_per_watt_gain * 100));

  bench::Section("sensitivity — fleet power vs achievable utilization");
  bench::Table s({"util with SDM", "fleet power ratio", "saving %"});
  for (const double util : {0.63, 0.70, 0.80, 0.90, 0.95}) {
    MultiTenancyScenario sc2;
    sc2.sdm_utilization = util;
    const auto e2 = EvaluateMultiTenancy(sc2);
    s.Row(util, e2.fleet_power_ratio, (1 - e2.fleet_power_ratio) * 100);
  }
  s.Print();
  return 0;
}
