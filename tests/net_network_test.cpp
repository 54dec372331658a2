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

TEST(Network, DeliversPayloadIntact) {
  TwoNodes env;
  Bytes payload{1, 2, 3, 4, 5};
  EXPECT_TRUE(env.network.send(env.a, env.b, payload));
  env.sim.run();
  ASSERT_EQ(env.at_b.size(), 1u);
  EXPECT_EQ(env.at_b[0].frame.to_bytes(), payload);
  EXPECT_EQ(env.at_b[0].src, env.a);
  EXPECT_EQ(env.at_b[0].dst, env.b);
}

TEST(Network, DeliveryDelayWithinBound) {
  LinkParams p;
  p.propagation = millis(2);
  p.jitter = millis(1);
  p.bandwidth_bps = 10e6;
  TwoNodes env(p);
  const std::size_t payload_size = 100;
  TimePoint sent = env.sim.now();
  env.network.send(env.a, env.b, Bytes(payload_size, 0));
  env.sim.run();
  ASSERT_EQ(env.at_b.size(), 1u);
  const Duration delay = env.sim.now() - sent;
  EXPECT_GE(delay, millis(2));
  EXPECT_LE(delay, p.delay_bound(payload_size + Packet::kFramingOverhead));
}

TEST(Network, NoLinkMeansNoDelivery) {
  sim::Simulator sim;
  Network network(sim);
  int delivered = 0;
  NodeId a = network.add_node([&](const Packet&) { ++delivered; });
  NodeId c = network.add_node([&](const Packet&) { ++delivered; });
  EXPECT_FALSE(network.send(a, c, Bytes{1}));
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(network.unlinked_sends(), 1u);
}

TEST(Network, FullLossDropsEverything) {
  LinkParams p;
  p.loss_probability = 1.0;
  TwoNodes env(p);
  for (int i = 0; i < 100; ++i) env.network.send(env.a, env.b, Bytes{1});
  env.sim.run();
  EXPECT_TRUE(env.at_b.empty());
  EXPECT_EQ(env.network.stats(env.a, env.b).dropped, 100u);
}

TEST(Network, LossRateApproximatesProbability) {
  LinkParams p;
  p.loss_probability = 0.2;
  TwoNodes env(p);
  const int n = 20'000;
  for (int i = 0; i < n; ++i) env.network.send(env.a, env.b, Bytes{1});
  env.sim.run();
  const double delivered = static_cast<double>(env.at_b.size()) / n;
  EXPECT_NEAR(delivered, 0.8, 0.02);
}

TEST(Network, FifoPerDirectionEvenWithJitter) {
  LinkParams p;
  p.propagation = millis(1);
  p.jitter = millis(5);  // jitter larger than the send spacing
  TwoNodes env(p);
  for (std::uint8_t i = 0; i < 50; ++i) {
    env.network.send(env.a, env.b, Bytes{i});
    env.sim.run_until(env.sim.now() + micros(100));
  }
  env.sim.run();
  ASSERT_EQ(env.at_b.size(), 50u);
  for (std::uint8_t i = 0; i < 50; ++i) EXPECT_EQ(env.at_b[i].frame[0], i);
}

TEST(Network, DownNodeReceivesNothing) {
  TwoNodes env;
  env.network.set_node_up(env.b, false);
  env.network.send(env.a, env.b, Bytes{1});
  env.sim.run();
  EXPECT_TRUE(env.at_b.empty());
  EXPECT_EQ(env.network.stats(env.a, env.b).dropped, 1u);
  // Back up: deliveries resume.
  env.network.set_node_up(env.b, true);
  env.network.send(env.a, env.b, Bytes{2});
  env.sim.run();
  ASSERT_EQ(env.at_b.size(), 1u);
}

TEST(Network, BidirectionalTraffic) {
  TwoNodes env;
  env.network.send(env.a, env.b, Bytes{1});
  env.network.send(env.b, env.a, Bytes{2});
  env.sim.run();
  ASSERT_EQ(env.at_b.size(), 1u);
  ASSERT_EQ(env.at_a.size(), 1u);
}

TEST(Network, SetLossProbabilityMidRun) {
  TwoNodes env;
  env.network.send(env.a, env.b, Bytes{1});
  env.sim.run();
  EXPECT_EQ(env.at_b.size(), 1u);
  env.network.set_loss_probability(env.a, env.b, 1.0);
  env.network.send(env.a, env.b, Bytes{2});
  env.sim.run();
  EXPECT_EQ(env.at_b.size(), 1u);  // dropped
}

TEST(Network, StatsCountSentDelivered) {
  TwoNodes env;
  for (int i = 0; i < 10; ++i) env.network.send(env.a, env.b, Bytes{1});
  env.sim.run();
  const LinkStats& s = env.network.stats(env.a, env.b);
  EXPECT_EQ(s.sent, 10u);
  EXPECT_EQ(s.delivered, 10u);
  EXPECT_EQ(s.dropped, 0u);
}

TEST(LinkParams, DelayBoundAccountsForBandwidth) {
  LinkParams p;
  p.propagation = millis(1);
  p.jitter = Duration::zero();
  p.bandwidth_bps = 1e6;  // 1 Mb/s: 1000 bytes take 8 ms
  EXPECT_EQ(p.delay_bound(1000), millis(9));
  p.bandwidth_bps = 0;  // infinite
  EXPECT_EQ(p.delay_bound(1000), millis(1));
}

}  // namespace
}  // namespace rtpb::net
