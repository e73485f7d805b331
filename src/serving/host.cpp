#include "serving/host.h"

#include <cassert>

#include "common/kv_format.h"
#include "serving/run_meter.h"

namespace sdm {

HostSpec MakeHwL() {
  HostSpec h;
  h.name = "HW-L";
  h.cpu_sockets = 2;
  h.dram = 256 * kGiB;
  h.power = 1.0;
  h.dense_flops = 2.0e10;  // per-core
  return h;
}

HostSpec MakeHwS() {
  HostSpec h;
  h.name = "HW-S";
  h.cpu_sockets = 1;
  h.dram = 64 * kGiB;
  h.power = 0.15;  // 0.25 of an HW-AN (0.6) in Table 9's normalization
  h.dense_flops = 2.0e10;
  return h;
}

HostSpec MakeHwSS() {
  HostSpec h;
  h.name = "HW-SS";
  h.cpu_sockets = 1;
  h.dram = 64 * kGiB;
  h.ssds = {MakeNandFlashSpec(2000 * kGiB), MakeNandFlashSpec(2000 * kGiB)};
  h.power = 0.4;  // Table 8
  h.dense_flops = 2.0e10;
  return h;
}

HostSpec MakeHwAN() {
  HostSpec h;
  h.name = "HW-AN";
  h.cpu_sockets = 1;
  h.dram = 64 * kGiB;
  h.ssds = {MakeNandFlashSpec(1000 * kGiB), MakeNandFlashSpec(1000 * kGiB)};
  h.accelerator = true;
  h.power = 0.6;  // accelerated host; Table 9 normalizes this to 1.0
  h.dense_flops = 2.0e12;  // accelerator executes the dense part
  return h;
}

HostSpec MakeHwAO() {
  HostSpec h = MakeHwAN();
  h.name = "HW-AO";
  h.ssds = {MakeOptaneSsdSpec(400 * kGiB), MakeOptaneSsdSpec(400 * kGiB)};
  h.power = 0.6;  // Optane SSDs add ~nothing at host scale
  return h;
}

HostSpec MakeHwF() {
  HostSpec h;
  h.name = "HW-FA";
  h.cpu_sockets = 2;
  h.dram = 256 * kGiB;
  h.accelerator = true;
  h.power = 1.0;
  h.dense_flops = 2.0e13;  // next-gen accelerator
  return h;
}

HostSpec MakeHwFAO(int num_optane_ssds) {
  HostSpec h = MakeHwF();
  h.name = "HW-FAO";
  for (int i = 0; i < num_optane_ssds; ++i) {
    h.ssds.push_back(MakeOptaneSsdSpec(400 * kGiB));
  }
  // Table 11: the Optane complement costs ~1% of host power.
  h.power = 1.01;
  return h;
}

HostSimulation::HostSimulation(HostSimConfig config) : config_(std::move(config)) {}

Status HostSimulation::LoadModel(const ModelConfig& model) {
  if (shard_.store != nullptr) return FailedPreconditionError("model already loaded");
  ShardSpec spec;
  spec.fm_capacity = config_.fm_capacity;
  spec.store_seed = config_.seed;
  spec.workload_seed = config_.workload.seed;
  if (config_.tuning.obs.enabled()) {
    obs_ = std::make_unique<Observability>(config_.tuning.obs);
    spec.obs = obs_.get();
    spec.obs_prefix = "host0/";
  }
  auto shard = BuildServingShard(config_, model, spec, &loop_);
  if (!shard.ok()) return shard.status();
  shard_ = std::move(shard).value();
  return Status::Ok();
}

void HostSimulation::Warmup(uint64_t n, double qps) {
  (void)Run(qps, n);
}

HostRunReport HostSimulation::Run(double target_qps, uint64_t num_queries) {
  assert(shard_.store != nullptr);
  const ArrivalParticipant host = shard_.Participant(ArrivalSeed(config_.seed));
  const RunMeter meter(shard_);
  const SimTime t_begin = loop_.Now();
  const std::vector<ArrivalStats> stats =
      RunInterleavedArrivals(loop_, {&host, 1}, target_qps, num_queries);
  return meter.Report(stats[0], target_qps, loop_.Now() - t_begin);
}

std::string HostSimulation::ObsMetricsJson() {
  if (obs_ == nullptr) return "{}";
  obs_->Finalize();
  return obs_->MetricsJson();
}

std::string HostSimulation::ObsTraceJson() {
  if (obs_ == nullptr) return "{}";
  obs_->Finalize();
  return obs_->TraceJson();
}

std::string HostSimulation::ObsSloJson() {
  if (obs_ == nullptr) return "{}";
  obs_->Finalize();
  return obs_->SloJson();
}

double HostSimulation::FindMaxQps(SimDuration sla, bool use_p99, uint64_t queries_per_probe,
                                  double qps_lo, double qps_hi) {
  assert(shard_.store != nullptr);
  // A probe passes when the SLA percentile holds. Saturation shows up as a
  // growing admission backlog inflating the percentile within the probe
  // (the measured span includes queue drain), so latency alone is the
  // signal; an explicit achieved-rate check would be biased by the drain
  // tail at small probe sizes.
  auto passes = [&](double qps) {
    const HostRunReport r = Run(qps, queries_per_probe);
    const SimDuration lat = use_p99 ? r.p99 : r.p95;
    return lat <= sla;
  };
  if (!passes(qps_lo)) return 0;
  if (passes(qps_hi)) return qps_hi;
  for (int iter = 0; iter < 12; ++iter) {
    const double mid = 0.5 * (qps_lo + qps_hi);
    if (passes(mid)) {
      qps_lo = mid;
    } else {
      qps_hi = mid;
    }
  }
  return qps_lo;
}

std::string HostRunReport::Summary() const {
  KvFormatter f;
  f.Kv("qps", "%.0f/%.0f", achieved_qps, offered_qps)
      .Kv("p50", "%.2fms", p50.millis())
      .Kv("p95", "%.2fms", p95.millis())
      .Kv("p99", "%.2fms", p99.millis())
      .Kv("hit", "%.1f%%", row_cache_hit_rate * 100)
      .Kv("pooled", "%.1f%%", pooled_hit_rate * 100)
      .Kv("iops", "%.0f", sm_iops)
      .Kv("amp", "%.2f", sm_read_amplification)
      .Kv("cpu/q", "%.0fus", avg_cpu_per_query.micros())
      .Kv("sf", "%llu", static_cast<unsigned long long>(singleflight_hits))
      .Kv("xmerge", "%llu", static_cast<unsigned long long>(cross_request_merges))
      .Kv("occ", "%.1f", batch_occupancy)
      .Kv("pf", "%llu", static_cast<unsigned long long>(prefetch_issued))
      .Kv("pfhit", "%.1f%%", prefetch_hit_rate * 100)
      .Kv("pfwaste", "%lluKiB", static_cast<unsigned long long>(prefetch_wasted_bytes / kKiB))
      .Kv("err", "%llu", static_cast<unsigned long long>(io_errors))
      .Kv("retry", "%llu", static_cast<unsigned long long>(io_retries))
      .Kv("ddl", "%llu", static_cast<unsigned long long>(deadline_expired))
      .Kv("hedge", "%llu/%llu", static_cast<unsigned long long>(hedges_won),
          static_cast<unsigned long long>(hedges_issued))
      .Kv("deg", "%llu", static_cast<unsigned long long>(queries_degraded))
      .Kv("rowsf", "%llu", static_cast<unsigned long long>(rows_failed))
      .Kv("shed", "%llu", static_cast<unsigned long long>(lookups_shed))
      .Kv("rot", "%llu", static_cast<unsigned long long>(blocks_corrupt))
      .Kv("rrd", "%llu", static_cast<unsigned long long>(read_repairs))
      .Kv("rep", "%llu", static_cast<unsigned long long>(replica_reads))
      .Kv("xrep", "%llu", static_cast<unsigned long long>(extents_replicated));
  return f.str();
}

}  // namespace sdm
