#include "common/rng.h"

#include <cmath>

namespace sdm {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  const uint64_t z = Mix64(state);
  state += 0x9e3779b97f4a7c15ULL;
  return z;
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless method.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  auto l = static_cast<uint64_t>(m);
  if (l < bound) {
    const uint64_t t = -bound % bound;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

bool Rng::NextBernoulli(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return NextDouble() < p;
}

double Rng::NextExponential(double mean) {
  assert(mean > 0);
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::NextGaussian() {
  // Marsaglia polar method; discards the second variate for simplicity.
  for (;;) {
    const double u = NextDouble(-1.0, 1.0);
    const double v = NextDouble(-1.0, 1.0);
    const double s = u * u + v * v;
    if (s > 0 && s < 1) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double Rng::NextLogNormal(double median, double sigma) {
  assert(median > 0);
  return median * std::exp(sigma * NextGaussian());
}

Rng Rng::Fork() { return Rng(Next()); }

// ---------------------------------------------------------------------------
// ZipfSampler — Hörmann & Derflinger rejection-inversion.
// ---------------------------------------------------------------------------

ZipfSampler::ZipfSampler(uint64_t n, double alpha) : n_(n), alpha_(alpha) {
  assert(n >= 1);
  assert(alpha >= 0);
  h_x1_ = H(1.5) - 1.0;
  h_n_ = H(static_cast<double>(n) + 0.5);
  s_ = 2.0 - HInv(H(2.5) - std::pow(2.0, -alpha));
}

double ZipfSampler::H(double x) const {
  // H(x) = integral of t^-alpha dt; log for alpha == 1.
  if (alpha_ == 1.0) return std::log(x);
  return (std::pow(x, 1.0 - alpha_) - 1.0) / (1.0 - alpha_);
}

double ZipfSampler::HInv(double x) const {
  if (alpha_ == 1.0) return std::exp(x);
  return std::pow(1.0 + x * (1.0 - alpha_), 1.0 / (1.0 - alpha_));
}

uint64_t ZipfSampler::Sample(Rng& rng) const {
  if (n_ == 1) return 0;
  if (alpha_ == 0.0) return rng.NextBounded(n_);
  for (;;) {
    const double u = h_n_ + rng.NextDouble() * (h_x1_ - h_n_);
    const double x = HInv(u);
    auto k = static_cast<uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n_) k = n_;
    const double kd = static_cast<double>(k);
    if (kd - x <= s_ || u >= H(kd + 0.5) - std::pow(kd, -alpha_)) {
      return k - 1;  // ranks are 0-based externally
    }
  }
}

double ZipfSampler::Pmf(uint64_t rank) const {
  assert(rank < n_);
  if (harmonic_ == 0) {
    double h = 0;
    for (uint64_t i = 1; i <= n_; ++i) h += std::pow(static_cast<double>(i), -alpha_);
    harmonic_ = h;
  }
  return std::pow(static_cast<double>(rank + 1), -alpha_) / harmonic_;
}

double ZipfSampler::TopMass(uint64_t k) const {
  double m = 0;
  const uint64_t limit = k < n_ ? k : n_;
  for (uint64_t i = 0; i < limit; ++i) m += Pmf(i);
  return m;
}

std::vector<uint64_t> RandomPermutation(uint64_t n, Rng& rng) {
  std::vector<uint64_t> perm(n);
  for (uint64_t i = 0; i < n; ++i) perm[i] = i;
  for (uint64_t i = n; i > 1; --i) {
    const uint64_t j = rng.NextBounded(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

}  // namespace sdm
