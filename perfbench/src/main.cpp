// perfbench — the repository benchmark (see ../README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// Prints human-readable lines, then as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when a
// correctness or determinism check fails.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/logging.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* clock;  ///< "host" (hardware-dependent) or "virtual"
};

// Keep in step with BENCHMARK.json.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s", "host"},          {"sim_qps", "1/s", "host"},
    {"peak_rss_mib", "MiB", "host"},   {"p50_us", "us", "virtual"},
    {"p99_us", "us", "virtual"},       {"max_qps_at_slo", "1/s", "virtual"},
};

const std::vector<MetricDef> kPerLayer = {
    {"common.events_per_query", "count", "virtual"},
    {"common.ns_per_event", "ns", "host"},
    {"common.windows_per_query", "count", "virtual"},
    {"common.events_per_window", "count", "virtual"},
    {"common.ns_per_window", "ns", "host"},
    {"trace.gen_ns_per_query", "ns", "host"},
    {"serving.admission_wait_p99_us", "us", "virtual"},
    {"serving.user_path_p99_us", "us", "virtual"},
    {"serving.item_path_p99_us", "us", "virtual"},
    {"serving.cpu_us_per_query", "us", "virtual"},
    {"serving.submit_ns", "ns", "host"},
    {"core.lookup_p99_us", "us", "virtual"},
    {"core.rows_per_query", "count", "virtual"},
    {"core.rows_deduped_share", "ratio", "virtual"},
    {"core.load_s", "s", "host"},
    {"core.refresh_write_ms", "ms", "virtual"},
    {"core.lookup_ns", "ns", "host"},
    {"cache.row_hit_rate", "ratio", "virtual"},
    {"cache.probes_per_query", "count", "virtual"},
    {"cache.pooled_hit_rate", "ratio", "virtual"},
    {"cache.evictions_per_query", "count", "virtual"},
    {"cache.probe_ns", "ns", "host"},
    {"cache.insert_ns", "ns", "host"},
    {"sched.batch_occupancy", "count", "virtual"},
    {"sched.singleflight_share", "ratio", "virtual"},
    {"sched.merges_per_query", "count", "virtual"},
    {"sched.deadline_flush_share", "ratio", "virtual"},
    {"sched.plan_ns", "ns", "host"},
    {"sched.flush_ns", "ns", "host"},
    {"io.engine_p99_us", "us", "virtual"},
    {"io.throttle_wait_ms", "ms", "virtual"},
    {"io.cpu_us_per_query", "us", "virtual"},
    {"io.submit_batch_ns", "ns", "host"},
    {"device.reads_per_query", "count", "virtual"},
    {"device.read_amp", "ratio", "virtual"},
    {"device.read_p99_us", "us", "virtual"},
    {"device.write_mib", "MiB", "virtual"},
    {"fabric.queue_us_per_transfer", "us", "virtual"},
    {"fabric.bytes_per_query", "B", "virtual"},
    {"fabric.transmit_ns", "ns", "host"},
    {"tenant.cross_host_share", "ratio", "virtual"},
    {"fault.retries_per_1k", "count", "virtual"},
    {"fault.hedge_win_share", "ratio", "virtual"},
    {"fault.rows_failed_per_1k", "count", "virtual"},
    {"fault.read_repairs", "count", "virtual"},
    {"fault.deadline_expired", "count", "virtual"},
    {"perfbench.trace_overhead_share", "ratio", "host"},
};

const char* kWorkloads[] = {"m1_cached", "m2_io_bound", "disagg16_sharded",
                            "m1_refresh_faults"};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n",
               msg);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = val == "1";
    } else if (arg == "--trace-out") {
      opt.trace_out = val;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || opt.workload == w;
  if (!known) Usage(("unknown workload '" + opt.workload + "'").c_str());
  if (!(opt.seconds > 0)) Usage("--seconds must be positive");
  return opt;
}

/// ns per iteration of a fixed xorshift loop, median of 5: a same-process
/// yardstick for normalising host-clock numbers across machines.
double CalibrationNsPerIter() {
  constexpr uint64_t kIters = uint64_t{1} << 22;
  static volatile uint64_t sink = 0;
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    uint64_t x = 0x2545F4914F6CDD1DULL + static_cast<uint64_t>(rep);
    const double t0 = HostNow();
    for (uint64_t i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    samples.push_back((HostNow() - t0) * 1e9 / static_cast<double>(kIters));
    sink = sink + x;
  }
  return Median(samples);
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  sdm::SetLogLevel(sdm::LogLevel::kWarn);
  const Options opt = Parse(argc, argv);
  const double calib = CalibrationNsPerIter();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::printf("fingerprint {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"calibration_ns_per_iter\": %.4f} (host clock: hardware-dependent, not gated)\n",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              calib);
  std::fflush(stdout);

  RunResult r = opt.workload == "disagg16_sharded" ? RunDisaggWorkload(opt) : RunHostWorkload(opt);
  r.end_to_end["peak_rss_mib"] = PeakRssMib();

  const auto& defs = opt.trace ? kPerLayer : kEndToEnd;
  const Metrics& values = opt.trace ? r.per_layer : r.end_to_end;
  if (values.size() != defs.size()) {
    AddFailure(&r, "metric set does not match its definition list");
  }
  std::string json;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end()) {
      AddFailure(&r, std::string("metric not produced: ") + d.name);
      continue;
    }
    std::printf("  %-32s %.17g %s [%s]\n", d.name, it->second, d.unit, d.clock);
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", d.name, it->second, d.unit);
    json += buf;
  }
  for (const std::string& note : r.notes) std::printf("  %s\n", note.c_str());
  const bool correct = r.check_failures.empty();
  std::printf("checks: %s\n", correct ? "passed" : "FAILED");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), json.c_str());
  return correct ? 0 : 1;
}
