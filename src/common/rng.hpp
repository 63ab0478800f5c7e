// Deterministic random sources for workload generation and fault injection.
//
// Simulation runs must be reproducible bit-for-bit, so every random draw in
// srcache flows through one of these seeded generators — never std::rand or
// a default-seeded std engine.
#pragma once

#include <cmath>
#include <vector>

#include "common/types.hpp"

namespace srcache::common {

// SplitMix64: used to expand a single user seed into stream seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(u64 seed) : state_(seed) {}

  u64 next() {
    u64 z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  u64 state_;
};

// xoshiro256**: the main workhorse generator.
class Xoshiro256 {
 public:
  explicit Xoshiro256(u64 seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  u64 next() {
    const u64 result = rotl(s_[1] * 5, 7) * 9;
    const u64 t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). bound must be > 0.
  u64 below(u64 bound) { return next() % bound; }

  // Uniform integer in [lo, hi].
  u64 range(u64 lo, u64 hi) { return lo + below(hi - lo + 1); }

  // Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  bool chance(double p) { return uniform() < p; }

 private:
  static u64 rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }
  u64 s_[4];
};

// Zipf(theta) sampler over [0, n) using the rejection-inversion free
// precomputed-harmonic approach; O(1) draws after O(n)-free setup via the
// standard two-candidate approximation (Gray et al., SIGMOD'94 style).
class ZipfSampler {
 public:
  ZipfSampler(u64 n, double theta, u64 seed)
      : n_(n), theta_(theta), rng_(seed) {
    if (n_ == 0) n_ = 1;
    zetan_ = zeta(n_, theta_);
    zeta2_ = zeta(2, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2_ / zetan_);
  }

  // Rank 0 is the hottest item.
  u64 next() {
    const double u = rng_.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto v = static_cast<u64>(
        static_cast<double>(n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return v >= n_ ? n_ - 1 : v;
  }

  u64 n() const { return n_; }

 private:
  static double zeta(u64 n, double theta) {
    // Exact for small n; sampled + extrapolated for large n to keep setup
    // cost constant for multi-GiB footprints.
    constexpr u64 kExact = 1u << 20;
    double sum = 0.0;
    const u64 lim = n < kExact ? n : kExact;
    for (u64 i = 1; i <= lim; ++i)
      sum += std::pow(1.0 / static_cast<double>(i), theta);
    if (n > kExact) {
      // Integral tail approximation of sum_{kExact+1..n} i^-theta.
      const double a = static_cast<double>(kExact);
      const double b = static_cast<double>(n);
      sum += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) /
             (1.0 - theta);
    }
    return sum;
  }

  u64 n_;
  double theta_;
  Xoshiro256 rng_;
  double zetan_, zeta2_, alpha_, eta_;
};

}  // namespace srcache::common
