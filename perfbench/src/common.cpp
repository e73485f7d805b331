#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench.h"
#include "common/rng.h"

namespace perfbench {

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
constexpr uint64_t kGaugeEntries = uint64_t{1} << 18;
constexpr uint64_t kGaugeLookups = 100'000;
constexpr uint64_t kGaugeKeyMul = 0x9e3779b97f4a7c15ULL;
}  // namespace

SpeedGauge::SpeedGauge(size_t threads) : threads_(threads) {
  table_.reserve(kGaugeEntries);
  for (uint64_t i = 0; i < kGaugeEntries; ++i) table_[i * kGaugeKeyMul] = i;
}

double SpeedGauge::KernelNs() const {
  static std::atomic<uint64_t> sink{0};
  // The same key sequence twice: the untimed pass brings the table back
  // into cache, whatever the program left there, so the timed pass
  // measures the machine and not the program's cache footprint.
  double ns = 0;
  for (int pass = 0; pass < 2; ++pass) {
    uint64_t acc = 0;
    const double t0 = HostNow();
    for (uint64_t i = 0; i < kGaugeLookups; ++i) {
      const uint64_t slot = DeriveSeed(i, 0) & (kGaugeEntries - 1);
      acc += table_.find(slot * kGaugeKeyMul)->second;
    }
    ns = (HostNow() - t0) * 1e9 / static_cast<double>(kGaugeLookups);
    sink.fetch_add(acc, std::memory_order_relaxed);
  }
  return ns;
}

void SpeedGauge::Sample() {
  std::vector<double> ns(threads_);
  std::vector<std::thread> others;
  for (size_t t = 1; t < threads_; ++t) others.emplace_back([&, t] { ns[t] = KernelNs(); });
  ns[0] = KernelNs();
  for (std::thread& t : others) t.join();
  samples_ns_.push_back(*std::max_element(ns.begin(), ns.end()));
}

double SpeedGauge::Rescale(double host_s) {
  Sample();
  const double before = samples_ns_.end()[-2];
  return host_s * 2 * kReferenceNs / (before + samples_ns_.back());
}

void AddGaugeNotes(const SpeedGauge& gauge, const std::vector<double>& rates,
                   const std::vector<double>& raw_rates, const std::vector<double>& setups,
                   const std::vector<double>& raw_setups, RunResult* r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "speed gauge: median %.4g ns per lookup (reference %.0f ns); samples: ",
                Median(gauge.samples_ns()), SpeedGauge::kReferenceNs);
  r->notes.push_back(buf + JoinValues(gauge.samples_ns()));
  r->notes.push_back("sim_qps per segment, at the reference speed: " + JoinValues(rates));
  r->notes.push_back("sim_qps per segment, as measured: " + JoinValues(raw_rates) +
                     " (median " + JoinValues({Median(raw_rates)}) + ")");
  r->notes.push_back("setup_s per setup, at the reference speed: " + JoinValues(setups));
  r->notes.push_back("setup_s per setup, as measured: " + JoinValues(raw_setups));
}

std::vector<double> UnitGaps(uint64_t seed, size_t n) {
  sdm::Rng rng(seed);
  std::vector<double> gaps(n);
  for (double& g : gaps) g = rng.NextExponential(1.0);
  return gaps;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string JoinValues(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (const double x : v) {
    std::snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : " ", x);
    out += buf;
  }
  return out;
}

int64_t Percentile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0;
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  const size_t idx = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

namespace {

/// Rate in [lo, hi] where the SLO percentile crosses the SLO, by linear
/// interpolation of log(p99) in rate. A bracket whose failing end failed
/// on backlog or errors rather than latency gives its midpoint.
double Interpolate(const Probe& lo, const Probe& hi, double slo_ns) {
  if (hi.p99_ns <= slo_ns || lo.p99_ns <= 0) return 0.5 * (lo.qps + hi.qps);
  const double f = (std::log(slo_ns) - std::log(lo.p99_ns)) /
                   (std::log(hi.p99_ns) - std::log(lo.p99_ns));
  return lo.qps + std::clamp(f, 0.0, 1.0) * (hi.qps - lo.qps);
}

}  // namespace

double FindMaxQpsAtSlo(double start_qps, double slo_ns,
                       const std::function<Probe(double)>& probe) {
  constexpr double kStep = 1.1;
  constexpr int kRefinements = 2;
  constexpr int kMaxSteps = 24;
  Probe lo;
  Probe hi;
  Probe p = probe(start_qps);
  if (p.passed) {
    lo = p;
    for (int k = 0; k < kMaxSteps && hi.qps == 0; ++k) {
      p = probe(lo.qps * kStep);
      (p.passed ? lo : hi) = p;
    }
    if (hi.qps == 0) return lo.qps;
  } else {
    hi = p;
    for (int k = 0; k < kMaxSteps && lo.qps == 0; ++k) {
      p = probe(hi.qps / kStep);
      (p.passed ? lo : hi) = p;
    }
    if (lo.qps == 0) return 0;
  }
  for (int i = 0; i < kRefinements; ++i) {
    p = probe(Interpolate(lo, hi, slo_ns));
    (p.passed ? lo : hi) = p;
  }
  return Interpolate(lo, hi, slo_ns);
}

void Fatal(const std::string& what, const sdm::Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(), s.ToString().c_str());
  std::exit(1);
}

void AddFailure(RunResult* r, const std::string& msg) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", msg.c_str());
  r->check_failures.push_back(msg);
}

void CheckIdentical(const Metrics& a, const Metrics& b, const std::string& what,
                    RunResult* r) {
  for (const auto& [name, value] : a) {
    const auto it = b.find(name);
    if (it == b.end() || it->second != value) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s: [v] %s differs (%.17g vs %.17g)", what.c_str(),
                    name.c_str(), value, it == b.end() ? NAN : it->second);
      AddFailure(r, buf);
    }
  }
  if (a.size() != b.size()) AddFailure(r, what + ": [v] metric sets differ");
}

}  // namespace perfbench
