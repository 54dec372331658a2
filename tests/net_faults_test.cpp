// Link-level chaos knobs: duplication, FIFO-exempt reordering, correlated
// burst loss and single-bit corruption.  Each knob's statistics must count
// exactly what happened, because the chaos oracles reconcile them against
// transport-layer counters.
#include "net/network.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rtpb::net {
namespace {

struct TwoNodes {
  sim::Simulator sim{1234};
  Network network{sim};
  std::vector<Packet> at_a;
  std::vector<Packet> at_b;
  NodeId a;
  NodeId b;

  explicit TwoNodes(LinkParams params = {}) {
    a = network.add_node([this](const Packet& p) { at_a.push_back(p); });
    b = network.add_node([this](const Packet& p) { at_b.push_back(p); });
    network.connect(a, b, params);
  }
};

TEST(LinkFaults, SetFaultsAppliesBothDirections) {
  TwoNodes env;
  LinkFaults f;
  f.duplicate_probability = 0.25;
  env.network.set_faults(env.a, env.b, f);
  EXPECT_EQ(env.network.faults(env.a, env.b).duplicate_probability, 0.25);
  EXPECT_EQ(env.network.faults(env.b, env.a).duplicate_probability, 0.25);
}

TEST(LinkFaults, InvalidProbabilityDies) {
  TwoNodes env;
  LinkFaults f;
  f.corrupt_probability = 1.5;
  EXPECT_DEATH(env.network.set_faults(env.a, env.b, f), "precondition");
}

TEST(LinkFaults, CertainDuplicationDeliversEveryFrameTwice) {
  TwoNodes env;
  LinkFaults f;
  f.duplicate_probability = 1.0;
  env.network.set_faults(env.a, env.b, f);

  const int n = 50;
  for (int i = 0; i < n; ++i) {
    env.network.send(env.a, env.b, Bytes{static_cast<std::uint8_t>(i)});
  }
  env.sim.run();
  EXPECT_EQ(env.at_b.size(), 2u * n);
  EXPECT_EQ(env.network.stats(env.a, env.b).duplicated, static_cast<std::uint64_t>(n));
  EXPECT_EQ(env.network.stats(env.a, env.b).delivered, 2u * n);
}

TEST(LinkFaults, ReorderingBreaksFifoDelivery) {
  LinkParams p;
  p.propagation = millis(1);
  TwoNodes env(p);
  LinkFaults f;
  f.reorder_probability = 0.3;
  f.reorder_extra = millis(5);
  env.network.set_faults(env.a, env.b, f);

  // Back-to-back sends: without the knob, FIFO clamping forbids overtaking.
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    env.network.send(env.a, env.b, Bytes{static_cast<std::uint8_t>(i)});
  }
  env.sim.run();
  ASSERT_EQ(env.at_b.size(), static_cast<std::size_t>(n));
  EXPECT_GT(env.network.stats(env.a, env.b).reordered, 0u);

  bool out_of_order = false;
  for (std::size_t i = 1; i < env.at_b.size(); ++i) {
    if (env.at_b[i].frame[0] < env.at_b[i - 1].frame[0]) out_of_order = true;
  }
  EXPECT_TRUE(out_of_order) << "reordered frames should be observably overtaken";
}

TEST(LinkFaults, WithoutReorderKnobDeliveryStaysFifo) {
  LinkParams p;
  p.propagation = millis(1);
  p.jitter = millis(1);  // jitter alone must not break FIFO
  TwoNodes env(p);
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    env.network.send(env.a, env.b, Bytes{static_cast<std::uint8_t>(i)});
  }
  env.sim.run();
  ASSERT_EQ(env.at_b.size(), static_cast<std::size_t>(n));
  for (std::size_t i = 1; i < env.at_b.size(); ++i) {
    EXPECT_GE(env.at_b[i].frame[0], env.at_b[i - 1].frame[0]);
  }
}

TEST(LinkFaults, BurstLossKillsConsecutiveFrames) {
  TwoNodes env;
  LinkFaults f;
  f.burst_loss_probability = 1.0;  // every frame opens (or continues) a burst
  f.burst_length = 4;
  env.network.set_faults(env.a, env.b, f);

  for (int i = 0; i < 8; ++i) env.network.send(env.a, env.b, Bytes{1});
  env.sim.run();
  EXPECT_TRUE(env.at_b.empty());
  EXPECT_EQ(env.network.stats(env.a, env.b).burst_dropped, 8u);
}

TEST(LinkFaults, ClearingBurstKnobClosesAnOpenBurst) {
  TwoNodes env;
  LinkFaults f;
  f.burst_loss_probability = 1.0;
  f.burst_length = 100;
  env.network.set_faults(env.a, env.b, f);
  env.network.send(env.a, env.b, Bytes{1});  // opens a 100-frame burst
  env.sim.run();
  EXPECT_TRUE(env.at_b.empty());

  env.network.set_faults(env.a, env.b, LinkFaults{});  // chaos interval ends
  env.network.send(env.a, env.b, Bytes{2});
  env.sim.run();
  ASSERT_EQ(env.at_b.size(), 1u) << "a stale open burst must not outlive the knob";
}

TEST(LinkFaults, CorruptionFlipsExactlyOneBitAndStillDelivers) {
  TwoNodes env;
  LinkFaults f;
  f.corrupt_probability = 1.0;
  env.network.set_faults(env.a, env.b, f);

  const Bytes sent(32, 0xAB);
  const int n = 20;
  for (int i = 0; i < n; ++i) env.network.send(env.a, env.b, sent);
  env.sim.run();
  ASSERT_EQ(env.at_b.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(env.network.stats(env.a, env.b).corrupted, static_cast<std::uint64_t>(n));

  for (const Packet& got : env.at_b) {
    int flipped_bits = 0;
    ASSERT_EQ(got.frame.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      std::uint8_t diff = static_cast<std::uint8_t>(got.frame[i] ^ sent[i]);
      while (diff != 0) {
        flipped_bits += diff & 1;
        diff = static_cast<std::uint8_t>(diff >> 1);
      }
    }
    EXPECT_EQ(flipped_bits, 1);
  }
}

TEST(LinkFaults, CorruptSkipSparesTheFrontBytes) {
  TwoNodes env;
  LinkFaults f;
  f.corrupt_probability = 1.0;
  f.corrupt_skip = 31;  // only the last byte of a 32-byte frame is fair game
  env.network.set_faults(env.a, env.b, f);

  const Bytes sent(32, 0x00);
  for (int i = 0; i < 20; ++i) env.network.send(env.a, env.b, sent);
  env.sim.run();
  ASSERT_EQ(env.at_b.size(), 20u);
  for (const Packet& got : env.at_b) {
    for (std::size_t i = 0; i + 1 < sent.size(); ++i) {
      EXPECT_EQ(got.frame[i], sent[i]) << "byte " << i << " should be spared";
    }
    EXPECT_NE(got.frame[31], sent[31]);
  }
}

TEST(LinkFaults, CorruptionCopiesASharedBodyBeforeFlipping) {
  // One frame body fanned out over two links, as the primary sends one
  // update to every backup.  Corrupting it on one link must leave the
  // other receiver's bytes, and the sender's frame, untouched.
  sim::Simulator sim{1234};
  Network network{sim};
  std::vector<Packet> at_b;
  std::vector<Packet> at_c;
  const NodeId a = network.add_node([](const Packet&) {});
  const NodeId b = network.add_node([&at_b](const Packet& p) { at_b.push_back(p); });
  const NodeId c = network.add_node([&at_c](const Packet& p) { at_c.push_back(p); });
  network.connect(a, b, LinkParams{});
  network.connect(a, c, LinkParams{});
  LinkFaults f;
  f.corrupt_probability = 1.0;
  network.set_faults(a, b, f);

  Frame frame{Bytes(64, 0x5A)};
  frame.push_header(Bytes{1, 2, 3, 4});
  const Bytes original = frame.to_bytes();
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    network.send(a, b, frame);
    network.send(a, c, frame);
  }
  sim.run();
  ASSERT_EQ(at_b.size(), static_cast<std::size_t>(n));
  ASSERT_EQ(at_c.size(), static_cast<std::size_t>(n));
  for (const Packet& got : at_b) EXPECT_NE(got.frame.to_bytes(), original);
  for (const Packet& got : at_c) {
    EXPECT_EQ(got.frame.to_bytes(), original);
    // Delivered without a copy: still the sender's body buffer.
    EXPECT_EQ(got.frame.body_view().buf, frame.body_view().buf);
  }
  EXPECT_EQ(frame.to_bytes(), original);
}

TEST(LinkFaults, FaultStatisticsStartAtZero) {
  TwoNodes env;
  const LinkStats& s = env.network.stats(env.a, env.b);
  EXPECT_EQ(s.burst_dropped, 0u);
  EXPECT_EQ(s.duplicated, 0u);
  EXPECT_EQ(s.reordered, 0u);
  EXPECT_EQ(s.corrupted, 0u);
}

}  // namespace
}  // namespace rtpb::net
