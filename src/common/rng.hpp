// Deterministic fast RNG (xoshiro256**) for workload generation.
//
// std::mt19937_64 would also do, but xoshiro is faster and its tiny state
// makes per-UE independent streams cheap; determinism across platforms is
// required for reproducible benches.
#pragma once

#include <cmath>
#include <cstdint>

namespace neutrino {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    // SplitMix64 seeding as recommended by the xoshiro authors.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    // Lemire's multiply-shift rejection-free-in-practice reduction.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next_u64()) * bound) >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Exponentially distributed with the given mean (inter-arrival times).
  double next_exponential(double mean) {
    double u;
    do {
      u = next_double();
    } while (u <= 0.0);
    return -mean * std::log(u);
  }

  bool next_bool(double p_true) { return next_double() < p_true; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4] = {};
};

}  // namespace neutrino
