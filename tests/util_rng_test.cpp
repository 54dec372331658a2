#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace rtpb {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 10'000; ++i) {
    const auto x = r.uniform(-3, 11);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 11);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng r(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformDegenerateRange) {
  Rng r(11);
  EXPECT_EQ(r.uniform(5, 5), 5);
}

TEST(Rng, FillBytesMatchesUniformByteDraws) {
  // fill_bytes is the sensing client's fast path: it must leave the same
  // bytes and the same generator state as one uniform(0, 255) per byte,
  // or every seeded run's values (and digests) would move.
  for (const std::size_t n : {0u, 1u, 7u, 64u, 1000u}) {
    Rng a(1234 + n);
    Rng b(1234 + n);
    std::vector<std::uint8_t> filled(n);
    a.fill_bytes(filled);
    std::vector<std::uint8_t> drawn(n);
    for (auto& x : drawn) x = static_cast<std::uint8_t>(b.uniform(0, 255));
    EXPECT_EQ(filled, drawn) << "length " << n;
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "length " << n;
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(13);
  for (int i = 0; i < 10'000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng r(19);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    if (r.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkedStreamsAreIndependentButDeterministic) {
  Rng parent1(123), parent2(123);
  Rng child1 = parent1.fork();
  Rng child2 = parent2.fork();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

TEST(Rng, MeanOfUniformReal) {
  Rng r(23);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += r.uniform_real(10.0, 20.0);
  EXPECT_NEAR(sum / n, 15.0, 0.1);
}

}  // namespace
}  // namespace rtpb
