// Small, fast, deterministic PRNG (xoshiro256**). The simulator is
// single-threaded per run; every stochastic component owns its own Rng
// seeded from the run seed so results are reproducible and components
// are statistically independent.
//
// The draw functions are header-inline: op generation calls them once
// or more per simulated memory reference.
#pragma once

#include <array>
#include <cstdint>

namespace cmm {

class Rng {
 public:
  /// Seeds the four 64-bit lanes from a single seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Uniform 64-bit value.
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform value in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    // Lemire's multiply-shift mapping: fast and bias-free enough for
    // workload synthesis. Falls back to modulo where the compiler has no
    // 128-bit integers.
#ifdef __SIZEOF_INT128__
    __extension__ using u128 = unsigned __int128;
    const u128 m = static_cast<u128>(next()) * static_cast<u128>(bound);
    return static_cast<std::uint64_t>(m >> 64);
#else
    return next() % bound;
#endif
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Bernoulli draw with probability p (clamped to [0,1]). Draws only
  /// when 0 < p < 1.
  bool next_bool(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Derive an independent child generator (for per-component seeding).
  Rng split() noexcept { return Rng(next()); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
};

/// splitmix64 step, exposed for seeding utilities and tests.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

}  // namespace cmm
