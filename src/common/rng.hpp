// Deterministic, seedable random number generation.
//
// All stochastic parts of the simulator (noise injection, synthetic weight
// and input generation, fabrication variation) draw from this generator so
// that every experiment is reproducible from a single seed.
#pragma once

#include <cstdint>
#include <limits>

namespace pcnna {

/// xoshiro256** by Blackman & Vigna — fast, high-quality, and deterministic
/// across platforms (unlike std::normal_distribution, whose output is
/// implementation-defined). Seeded through SplitMix64.
class Rng {
 public:
  /// Complete generator state: the xoshiro words plus the Box–Muller
  /// spare-normal cache. Capturing and restoring it around a draw sequence
  /// continues the stream exactly — the pipelined serving runtime hands the
  /// engine RNG from one PCU's stage to the next this way so a split run
  /// draws the same values a whole-network run would.
  struct State {
    std::uint64_t s[4]{};
    bool have_cached_normal = false;
    double cached_normal = 0.0;
  };

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  /// Re-initialize the full state from a 64-bit seed.
  void reseed(std::uint64_t seed);

  /// Snapshot the complete generator state.
  State state() const;

  /// Restore a snapshot taken with state().
  void set_state(const State& state);

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

  /// Advance the generator exactly as `n` calls of normal() would, leaving
  /// state() bitwise equal to theirs. Each skipped Box–Muller pair costs two
  /// xoshiro steps and no transform; only the last pair is transformed,
  /// because it sets the spare-normal cache. The threaded engine positions
  /// each pixel tile's generator at the tile's first draw this way.
  void discard_normals(std::uint64_t n);

 private:
  std::uint64_t state_[4]{};
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Seed of child stream `id` of `base`: the SplitMix64 finalizer over
/// base + (id + 1) * 2^64 / phi, the mixing Rng seeds itself with, so the
/// streams of adjacent ids are decorrelated. Request seeds and the chip's
/// per-bank fabrication streams are derived this way.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t id);

} // namespace pcnna
