// Deterministic, seedable random number generation.
//
// All stochastic parts of the simulator (noise injection, synthetic weight
// and input generation, fabrication variation) draw from this generator so
// that every experiment is reproducible from a single seed. The simulator's
// own streams are keyed: each is seeded with derive_seed from what it
// models (a bank position of the chip; an op, pass and pixel of a request),
// so a stream is never positioned, saved or handed on.
#pragma once

#include <cstdint>
#include <limits>

namespace pcnna {

/// xoshiro256** by Blackman & Vigna — fast, high-quality, and deterministic
/// across platforms (unlike std::normal_distribution, whose output is
/// implementation-defined). Seeded through SplitMix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  /// Re-initialize the full state from a 64-bit seed.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box–Muller (deterministic across platforms).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

 private:
  std::uint64_t state_[4]{};
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Seed of child stream `id` of `base`: the SplitMix64 finalizer over
/// base + (id + 1) * 2^64 / phi, the mixing Rng seeds itself with, so the
/// streams of adjacent ids are decorrelated. Request seeds, the chip's
/// per-bank fabrication streams and the sensor noise of each op, pass and
/// pixel are derived this way (counter-based, as in Salmon et al.,
/// "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011): a stream is a
/// pure function of its key, so nothing tracks a stream's position.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t id);

} // namespace pcnna
