// util/inline_ring.hpp: a FIFO queue that holds N elements in place and
// keeps the heap buffer it grows past them.
#include "util/inline_ring.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>

#include "util/rng.hpp"

namespace rtpb {
namespace {

TEST(InlineRing, HoldsNInPlace) {
  InlineRing<int, 4> ring;
  for (int i = 0; i < 4; ++i) ring.push_back(i);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.front(), i);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(InlineRing, GrowsPastNInOrderAndKeepsTheBufferWhenItDrains) {
  InlineRing<int, 4> ring;
  // Wrap the inline room first, so the spill copies a wrapped queue.
  for (int i = 0; i < 3; ++i) ring.push_back(-1);
  for (int i = 0; i < 3; ++i) ring.pop_front();
  for (int i = 0; i < 64; ++i) ring.push_back(i);
  EXPECT_EQ(ring.capacity(), 64u);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(ring.front(), i);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 64u);
  // Refilled to its old depth from a wrapped head, it does not grow.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 64; ++i) ring.push_back(round * 100 + i);
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(ring.front(), round * 100 + i);
      ring.pop_front();
    }
  }
  EXPECT_EQ(ring.capacity(), 64u);
}

TEST(InlineRing, MatchesADequeOnRandomPushesAndPops) {
  Rng rng(17);
  InlineRing<std::uint64_t, 2> ring;
  std::deque<std::uint64_t> model;
  std::uint64_t next = 0;
  for (int step = 0; step < 20'000; ++step) {
    // Drift between filling and draining so the depth wanders past every
    // capacity the ring doubles through.
    const bool fill = (step / 2'000) % 2 == 0 ? rng.bernoulli(0.6) : rng.bernoulli(0.4);
    if (fill || model.empty()) {
      ring.push_back(next);
      model.push_back(next);
      ++next;
    } else {
      ASSERT_EQ(ring.front(), model.front());
      ring.pop_front();
      model.pop_front();
    }
    ASSERT_EQ(ring.size(), model.size());
    ASSERT_GE(ring.capacity(), ring.size());
  }
}

}  // namespace
}  // namespace rtpb
