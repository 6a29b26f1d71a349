// Deterministic RNG: reproducibility and distribution sanity.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/mathutil.hpp"
#include "common/rng.hpp"

using pcnna::Rng;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  const auto first = a.next_u64();
  a.next_u64();
  a.reseed(7);
  EXPECT_EQ(first, a.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(17);
  std::vector<double> xs(100'000);
  for (double& x : xs) x = rng.uniform();
  EXPECT_NEAR(0.5, pcnna::mean(xs), 0.01);
  EXPECT_NEAR(std::sqrt(1.0 / 12.0), pcnna::stddev(xs), 0.01);
}

TEST(Rng, NormalMeanAndStddev) {
  Rng rng(19);
  std::vector<double> xs(100'000);
  for (double& x : xs) x = rng.normal(2.0, 3.0);
  EXPECT_NEAR(2.0, pcnna::mean(xs), 0.05);
  EXPECT_NEAR(3.0, pcnna::stddev(xs), 0.05);
}

TEST(Rng, NormalTailsAreSane) {
  Rng rng(23);
  int beyond3 = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i)
    if (std::abs(rng.normal()) > 3.0) ++beyond3;
  // P(|Z| > 3) ~ 0.27%; allow generous slack.
  EXPECT_GT(beyond3, 100);
  EXPECT_LT(beyond3, 600);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(29);
  std::vector<int> counts(10, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 - 800);
    EXPECT_LT(c, n / 10 + 800);
  }
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(31);
  EXPECT_THROW(rng.uniform_index(0), pcnna::Error);
}

// discard_normals(n) must leave the generator bitwise where n calls of
// normal() leave it — xoshiro words, the spare-normal flag, and the spare
// value itself — whether the stream starts on a fresh pair or holds a
// cached normal. The threaded engine positions its pixel tiles this way.
TEST(Rng, DiscardNormalsMatchesNormalCalls) {
  for (bool start_cached : {false, true}) {
    for (std::uint64_t n : {0u, 1u, 2u, 3u, 1000u, 1001u}) {
      Rng drawn(37), skipped(37);
      if (start_cached) {
        drawn.normal();
        skipped.normal();
      }
      ASSERT_EQ(start_cached, drawn.state().have_cached_normal);
      for (std::uint64_t i = 0; i < n; ++i) drawn.normal();
      skipped.discard_normals(n);

      const Rng::State want = drawn.state();
      const Rng::State got = skipped.state();
      for (std::size_t w = 0; w < 4; ++w)
        EXPECT_EQ(want.s[w], got.s[w])
            << "word " << w << " n=" << n << " cached=" << start_cached;
      EXPECT_EQ(want.have_cached_normal, got.have_cached_normal)
          << "n=" << n << " cached=" << start_cached;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(want.cached_normal),
                std::bit_cast<std::uint64_t>(got.cached_normal))
          << "n=" << n << " cached=" << start_cached;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(drawn.normal()),
                std::bit_cast<std::uint64_t>(skipped.normal()));
    }
  }
}
