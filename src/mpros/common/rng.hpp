#pragma once
// Deterministic random sources.
//
// Every stochastic element of the simulator (sensor noise, fault onset
// jitter, network loss) draws from a seeded Rng so scenarios replay exactly.
// Substreams derive child seeds via splitmix64 so that adding a consumer
// doesn't perturb unrelated streams.
//
// The engine is the standard's mt19937_64 (same seeding, recurrence and
// tempering), written out so that a draw takes no data-dependent branch:
// the twist's conditional is a mask, and the twist runs out of line once
// every 312 words. uniform() and normal() are written out too and follow
// libstdc++ 12 term for term, so the simulated data is the bits
// std::uniform_real_distribution and a fresh std::normal_distribution
// (Marsaglia's polar method, second variate discarded) give on that
// engine. integer(), exponential(), bernoulli() and std::shuffle on
// engine() still go through <random>.
//
// unit_normals() fills a span with the values that as many normal(0, 1)
// calls give before their `· 1 + 0`, from the same engine words, so a
// caller that writes `z · stddev + mean` gets normal()'s bits and leaves
// the stream where the calls would have. It draws a block of candidates
// first, keeping the accepted ones without a branch, then takes the
// block's logs and square roots in a loop of their own: the polar
// method's rejection is a branch no predictor learns, and kept out of
// that loop its misses do not stall the libm calls.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>

namespace mpros {

/// splitmix64 step; good avalanche, used for seed derivation.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// std::mt19937_64, word for word.
class Mt64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt64(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (index_ >= kStateSize) [[unlikely]] twist();
    result_type z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kStateSize = 312;

  void twist();

  std::array<std::uint64_t, kStateSize> state_;
  std::size_t index_ = kStateSize;
};

/// `double(u)`, correctly rounded, without the sign-bit test the compiler
/// puts in an unsigned conversion: both halves convert exactly and the one
/// addition rounds once.
constexpr double u64_to_double(std::uint64_t u) {
  return static_cast<double>(static_cast<std::uint32_t>(u >> 32)) * 0x1p32 +
         static_cast<double>(static_cast<std::uint32_t>(u));
}

/// std::generate_canonical<double, 53> of one 64-bit word: `u · 2⁻⁶⁴`,
/// clamped below 1.
constexpr double canonical(std::uint64_t u) {
  return std::min(u64_to_double(u) * 0x1p-64, 0x1.fffffffffffffp-1);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Derive an independent child stream; `salt` distinguishes siblings.
  [[nodiscard]] Rng fork(std::uint64_t salt) const {
    return Rng(splitmix64(seed_ ^ splitmix64(salt)));
  }

  double uniform(double lo, double hi) {
    return canonical(engine_()) * (hi - lo) + lo;
  }
  double normal(double mean, double stddev) {
    for (;;) {
      const double x = 2.0 * canonical(engine_()) - 1.0;
      const double y = 2.0 * canonical(engine_()) - 1.0;
      const double r2 = x * x + y * y;
      if (r2 > 1.0 || r2 == 0.0) continue;
      return y * std::sqrt(-2.0 * std::log(r2) / r2) * stddev + mean;
    }
  }
  /// Fill `z` with what `z.size()` calls of normal(0, 1) compute before
  /// `· 1 + 0`, consuming the same engine words.
  void unit_normals(std::span<double> z) {
    std::array<double, kNormalBlock> r2s{};
    for (std::size_t done = 0; done < z.size();) {
      const std::size_t want = std::min(kNormalBlock, z.size() - done);
      double* const ys = z.data() + done;
      for (std::size_t n = 0; n < want;) {
        const double x = 2.0 * canonical(engine_()) - 1.0;
        const double y = 2.0 * canonical(engine_()) - 1.0;
        const double r2 = x * x + y * y;
        ys[n] = y;
        r2s[n] = r2;
        n += static_cast<std::size_t>((r2 <= 1.0) & (r2 != 0.0));
      }
      for (std::size_t k = 0; k < want; ++k) {
        ys[k] = ys[k] * std::sqrt(-2.0 * std::log(r2s[k]) / r2s[k]);
      }
      done += want;
    }
  }
  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }
  std::uint64_t integer(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }
  bool bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  Mt64& engine() { return engine_; }

 private:
  static constexpr std::size_t kNormalBlock = 256;

  Mt64 engine_;
  std::uint64_t seed_;
};

}  // namespace mpros
