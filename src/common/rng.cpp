#include "common/rng.hpp"

#include <cmath>
#include <cstddef>

#include "common/error.hpp"

namespace pcnna {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

} // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
  // xoshiro must not be seeded with the all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
  have_cached_normal_ = false;
}

Rng::State Rng::state() const {
  State s;
  for (std::size_t i = 0; i < 4; ++i) s.s[i] = state_[i];
  s.have_cached_normal = have_cached_normal_;
  s.cached_normal = cached_normal_;
  return s;
}

void Rng::set_state(const State& state) {
  PCNNA_CHECK_MSG((state.s[0] | state.s[1] | state.s[2] | state.s[3]) != 0,
                  "xoshiro state must not be all zero");
  for (std::size_t i = 0; i < 4; ++i) state_[i] = state.s[i];
  have_cached_normal_ = state.have_cached_normal;
  cached_normal_ = state.cached_normal;
}

std::uint64_t Rng::next_u64() {
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

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  PCNNA_DCHECK(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  PCNNA_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = std::numeric_limits<std::uint64_t>::max() -
                              (std::numeric_limits<std::uint64_t>::max() % n);
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return v % n;
}

double Rng::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; uniform() can return 0 so nudge away from log(0).
  double u1 = uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  PCNNA_DCHECK(stddev >= 0.0);
  return mean + stddev * normal();
}

void Rng::discard_normals(std::uint64_t n) {
  if (n == 0) return;
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    if (--n == 0) return;
  }
  // The n remaining draws span ceil(n / 2) pairs of uniforms. Skip all but
  // the last pair raw, then draw it through normal() so the spare cache
  // (set by an odd n, stale but still part of state() by an even one) ends
  // as n calls would leave it.
  for (std::uint64_t i = 0; i < (n - 1) / 2; ++i) {
    next_u64();
    next_u64();
  }
  normal();
  if (n % 2 == 0) normal();
}

} // namespace pcnna
