// Shared declarations of the repository benchmark (see ../README.md).
//
// Two clocks: [v] metrics come from the modelled serving stack's virtual
// time and public counters, and are identical for a fixed seed; [h]
// metrics are host time spent simulating and depend on the hardware.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "trace/trace_gen.h"
#include "tracer.h"

namespace sdm {
class SdmStore;
}

namespace perfbench {

/// Metric name -> value. std::map keeps output order stable.
using Metrics = std::map<std::string, double>;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 5;
  bool trace = false;
  std::string trace_out;  ///< traced run: where the spans are written
};

/// What one workload run produced; main() turns it into the output lines.
struct RunResult {
  std::vector<std::string> check_failures;  ///< empty = every check passed
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics end_to_end;      ///< trace 0: the BENCHMARK.json end_to_end set
  Metrics per_layer;       ///< trace 1: the BENCHMARK.json per_layer set
  std::vector<std::string> notes;  ///< extra human-readable lines
};

RunResult RunHostWorkload(const Options& opt);
RunResult RunDisaggWorkload(const Options& opt);

// ---- helpers shared by the workload files (common.cpp) ----

[[nodiscard]] inline double HostNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host-speed yardstick for the gated host-clock metrics. On a shared host
/// the machine's speed moves by tens of percent for seconds to minutes at
/// a time, far more than the program's own run-to-run variation. A fixed
/// kernel of random lookups in a 256K-entry std::unordered_map, run right
/// before and after each timed interval, measures the speed the interval
/// ran at, and the interval is rescaled to the speed at which the kernel
/// costs kReferenceNs per lookup. The kernel touches nothing of the
/// program and runs on a table it has just re-read, so a change to the
/// program moves the interval and not the kernel, and shows in full.
class SpeedGauge {
 public:
  static constexpr double kReferenceNs = 40;

  /// `threads` copies of the kernel run at once on a program that runs on
  /// that many threads: its progress waits for the slowest of them, so a
  /// sample is the slowest copy's time.
  explicit SpeedGauge(size_t threads = 1);
  /// Times the kernel now (about 10 ms with its untimed pass) and keeps the
  /// ns per lookup.
  void Sample();
  /// Samples the kernel and returns `host_s`, an interval timed since the
  /// previous sample, at the reference speed: scaled by kReferenceNs over
  /// the mean of the two samples around it.
  [[nodiscard]] double Rescale(double host_s);
  [[nodiscard]] const std::vector<double>& samples_ns() const { return samples_ns_; }

 private:
  [[nodiscard]] double KernelNs() const;

  size_t threads_;
  std::unordered_map<uint64_t, uint64_t> table_;
  std::vector<double> samples_ns_;
};

/// Notes listing the rescaled sim_qps segments and set-ups beside the
/// measured ones and the gauge's samples, so every gated host figure can be
/// traced back to its clock readings.
void AddGaugeNotes(const SpeedGauge& gauge, const std::vector<double>& rates,
                   const std::vector<double>& raw_rates, const std::vector<double>& setups,
                   const std::vector<double>& raw_setups, RunResult* r);

/// SplitMix64 finaliser: derives independent seeds from the workload seed.
[[nodiscard]] uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// `n` unit-mean exponential gaps. Arrivals at rate r are gap / r apart, so
/// probes at different rates replay the same arrival pattern, scaled.
[[nodiscard]] std::vector<double> UnitGaps(uint64_t seed, size_t n);

[[nodiscard]] double Median(std::vector<double> v);
[[nodiscard]] std::string JoinValues(const std::vector<double>& v);
/// Nearest-rank percentile q in (0, 1] of `v` (0 when empty).
[[nodiscard]] int64_t Percentile(std::vector<int64_t> v, double q);
[[nodiscard]] inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }
/// num / den, or 0 for an empty denominator.
[[nodiscard]] inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Reports a failed set-up call and exits 1 without a result line.
[[noreturn]] void Fatal(const std::string& what, const sdm::Status& s);

/// One max-QPS probe: the SLO-percentile latency and whether the probe met
/// the SLO without failures or a growing backlog.
struct Probe {
  double qps = 0;
  double p99_ns = 0;
  bool passed = false;
};

/// Highest offered rate meeting the SLO, from probes run by `probe` on a
/// geometric grid around `start_qps`: walks the grid until a passing and a
/// failing rate bracket the limit, then narrows the bracket twice by regula
/// falsi on log(p99). Probes run in a fixed order, so the result is
/// deterministic.
[[nodiscard]] double FindMaxQpsAtSlo(double start_qps, double slo_ns,
                                     const std::function<Probe(double)>& probe);

/// Every user-visible check failure message goes through here so the
/// human-readable output names it.
void AddFailure(RunResult* r, const std::string& msg);

/// Compares two [v] metric maps exactly; records a failure per mismatch.
void CheckIdentical(const Metrics& a, const Metrics& b, const std::string& what,
                    RunResult* r);

/// Layer replays for the traced run (replay.cpp). Each drives one layer's
/// public entry point on a private instance with inputs derived from the
/// workload's queries, under spans named after the layer.
struct ReplayInput {
  /// Per query: the SM-placed (table, indices) pairs it looked up.
  std::vector<std::vector<std::pair<sdm::TableId, std::vector<sdm::RowIndex>>>> queries;
};
void ReplayLayers(sdm::SdmStore& store, const ReplayInput& input, bool with_fabric,
                  Tracer* tracer);

/// The replays' mean span times, as per-layer [h] metrics.
void AddReplayMetrics(const Tracer& tracer, Metrics* per_layer);

/// Appends the SM-placed lookups of `q` (per `store`'s placement).
void RecordSmLookups(sdm::SdmStore& store, const sdm::Query& q, ReplayInput* input);

}  // namespace perfbench
