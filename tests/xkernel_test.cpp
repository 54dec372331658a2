#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "xkernel/graph.hpp"
#include "xkernel/message.hpp"
#include "xkernel/udplite.hpp"

namespace rtpb::xkernel {
namespace {

TEST(Message, PushPopRoundTrip) {
  Bytes payload{10, 20, 30};
  Message m(payload);
  Bytes hdr{1, 2};
  m.push(hdr);
  EXPECT_EQ(m.size(), 5u);
  auto popped = m.pop(2);
  EXPECT_EQ(Bytes(popped.begin(), popped.end()), hdr);
  EXPECT_EQ(m.to_bytes(), payload);
}

TEST(Message, NestedHeadersStripInReverseOrder) {
  Message m(Bytes{99});
  m.push(Bytes{3});      // inner
  m.push(Bytes{2});      // middle
  m.push(Bytes{1});      // outer
  EXPECT_EQ(m.pop(1)[0], 1);
  EXPECT_EQ(m.pop(1)[0], 2);
  EXPECT_EQ(m.pop(1)[0], 3);
  EXPECT_EQ(m.to_bytes(), Bytes{99});
}

TEST(Message, HeadroomGrowsWhenExceeded) {
  Message m(Bytes{7});
  m.push(Bytes{1, 2});
  Bytes big(100, 0xEE);
  m.push(big);  // larger than the inline header region: gathered into the body
  EXPECT_EQ(m.size(), 103u);
  auto hdr = m.pop(100);
  EXPECT_EQ(Bytes(hdr.begin(), hdr.end()), big);
  EXPECT_EQ(m.to_bytes(), (Bytes{1, 2, 7}));
}

TEST(Message, FromWireHasNoHeadroomButPops) {
  // A message rebuilt over a received frame pops its header bytes, then
  // reads the shared body in place.
  Frame wire{Bytes{3, 4}};
  wire.push_header(Bytes{1, 2});
  Message m{wire};
  EXPECT_EQ(m.size(), 4u);
  (void)m.pop(2);
  EXPECT_EQ(m.to_bytes(), (Bytes{3, 4}));
  EXPECT_EQ(m.shared_contents().buf, wire.body_view().buf);
}

// ---------------------------------------------------------------------------
// Shared-payload semantics: copies and from_shared views must share one
// underlying buffer (the encode-once fan-out contract).
// ---------------------------------------------------------------------------

TEST(Message, CopiesShareThePayloadBuffer) {
  auto body = std::make_shared<const Bytes>(Bytes(256, 0x5A));
  Message a = Message::from_shared(body, 0, body->size());
  Message b = a;
  Message c = a;
  // Original + view in a + b + c — and zero new payload allocations.
  EXPECT_EQ(body.use_count(), 4);
  EXPECT_EQ(b.to_bytes(), *body);
  EXPECT_EQ(c.to_bytes(), *body);
}

TEST(Message, PushOnCopyLeavesSiblingsUntouched) {
  Message original{Bytes{1, 2, 3, 4}};
  Message copy = original;
  copy.push(Bytes{0xAA, 0xBB});
  EXPECT_EQ(copy.size(), 6u);
  EXPECT_EQ(original.size(), 4u);
  EXPECT_EQ(original.to_bytes(), (Bytes{1, 2, 3, 4}));
  EXPECT_EQ(copy.to_bytes(), (Bytes{0xAA, 0xBB, 1, 2, 3, 4}));
}

TEST(Message, FromSharedViewsSliceWithoutCopying) {
  auto body = std::make_shared<const Bytes>(Bytes{0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  Message mid = Message::from_shared(body, 3, 4);
  EXPECT_EQ(mid.size(), 4u);
  EXPECT_EQ(mid.to_bytes(), (Bytes{3, 4, 5, 6}));
  // Pops advance the view in place; no reallocation of the shared buffer.
  (void)mid.pop(2);
  EXPECT_EQ(mid.to_bytes(), (Bytes{5, 6}));
  EXPECT_EQ(body.use_count(), 2);
}

TEST(Message, SharedContentsIsZeroCopyWithoutHeaders) {
  auto body = std::make_shared<const Bytes>(Bytes(64, 0x11));
  Message m = Message::from_shared(body, 8, 32);
  const SharedView v = m.shared_contents();
  EXPECT_EQ(v.buf.get(), body.get());  // same buffer, not a copy
  EXPECT_EQ(v.offset, 8u);
  EXPECT_EQ(v.length, 32u);
}

TEST(Message, SharedContentsLinearisesWhenHeadersPresent) {
  Message m{Bytes{9, 9, 9}};
  m.push(Bytes{1, 2});
  const SharedView v = m.shared_contents();
  ASSERT_NE(v.buf, nullptr);
  const auto s = v.span();
  EXPECT_EQ(Bytes(s.begin(), s.end()), (Bytes{1, 2, 9, 9, 9}));
  // After linearising, the message itself still pops correctly.
  EXPECT_EQ(m.pop(2).size(), 2u);
  EXPECT_EQ(m.to_bytes(), (Bytes{9, 9, 9}));
}

TEST(Message, PopStraddlingHeaderAndBody) {
  Message m{Bytes{5, 6, 7}};
  m.push(Bytes{1, 2});
  const auto popped = m.pop(4);  // 2 header + 2 body bytes
  EXPECT_EQ(Bytes(popped.begin(), popped.end()), (Bytes{1, 2, 5, 6}));
  EXPECT_EQ(m.to_bytes(), Bytes{7});
}

TEST(Message, HeaderAndBodySegmentsGatherToContents) {
  Message m{Bytes{3, 4}};
  m.push(Bytes{1, 2});
  const auto h = m.header_segment();
  const auto b = m.body_segment();
  EXPECT_EQ(Bytes(h.begin(), h.end()), (Bytes{1, 2}));
  EXPECT_EQ(Bytes(b.begin(), b.end()), (Bytes{3, 4}));
}

TEST(UdpChecksum, DetectsCorruption) {
  Bytes data{1, 2, 3, 4, 5};
  const auto good = UdpLite::checksum(data);
  data[2] ^= 0xFF;
  EXPECT_NE(UdpLite::checksum(data), good);
}

TEST(UdpChecksum, OddLengthHandled) {
  Bytes data{1, 2, 3};
  EXPECT_EQ(UdpLite::checksum(data), UdpLite::checksum(data));
}

TEST(UdpChecksum, TwoSegmentGatherMatchesFlat) {
  // The push path checksums (header, body) without linearising; the sum
  // must equal the flat checksum for every split point, including splits
  // that break a 16-bit word across the segments.
  Bytes data(37, 0);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 13 + 5);
  const auto flat = UdpLite::checksum(data);
  const std::span<const std::uint8_t> all(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    EXPECT_EQ(UdpLite::checksum(all.subspan(0, split), all.subspan(split)), flat)
        << "split=" << split;
  }
}

TEST(UdpChecksum, Rfc1071WorkedExample) {
  // RFC 1071 section 3: these bytes sum (ones' complement) to 0xddf2; the
  // checksum field carries the complement of the sum.
  const Bytes data{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(UdpLite::checksum(data), static_cast<std::uint16_t>(~0xddf2u));
}

/// Reference checksum: one byte at a time, big-endian 16-bit words with
/// the carry folded after every addition.
std::uint16_t reference_checksum(std::span<const std::uint8_t> data) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < data.size(); i += 2) {
    std::uint32_t word = static_cast<std::uint32_t>(data[i]) << 8;
    if (i + 1 < data.size()) word |= data[i + 1];
    sum += word;
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xFFFF);
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
  return out;
}

TEST(UdpChecksum, MatchesByteAtATimeReference) {
  Rng rng(1071);
  for (int round = 0; round < 300; ++round) {
    const auto n = static_cast<std::size_t>(rng.uniform(0, 2048));
    Bytes data = random_bytes(rng, n);
    // Saturated words exercise the carry folding hardest.
    if (round % 10 == 0) std::fill(data.begin(), data.end(), 0xFF);
    const std::span<const std::uint8_t> all(data);
    ASSERT_EQ(UdpLite::checksum(all), reference_checksum(all)) << "n=" << n;
    const auto split = static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(n)));
    ASSERT_EQ(UdpLite::checksum(all.subspan(0, split), all.subspan(split)),
              reference_checksum(all))
        << "n=" << n << " split=" << split;
  }
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{9}, std::size_t{33},
                              std::size_t{101}, std::size_t{1401}}) {
    const Bytes data = random_bytes(rng, n);
    const std::span<const std::uint8_t> all(data);
    const std::uint16_t want = reference_checksum(all);
    for (std::size_t split = 0; split <= n; ++split) {
      ASSERT_EQ(UdpLite::checksum(all.subspan(0, split), all.subspan(split)), want)
          << "n=" << n << " split=" << split;
    }
  }
}

struct StackPair {
  sim::Simulator sim{7};
  net::Network network{sim};
  HostStack host_a{network};
  HostStack host_b{network};

  StackPair() { network.connect(host_a.node(), host_b.node(), net::LinkParams{}); }
};

TEST(HostStack, DatagramEndToEnd) {
  StackPair env;
  Bytes received;
  net::Endpoint from;
  env.host_b.udp().bind(1000, [&](Message& msg, const MsgAttrs& attrs) {
    received = msg.to_bytes();
    from = attrs.src;
  });
  Bytes payload{0xDE, 0xAD, 0xBE, 0xEF};
  env.host_a.send_datagram(2000, {env.host_b.node(), 1000}, payload);
  env.sim.run();
  EXPECT_EQ(received, payload);
  EXPECT_EQ(from.node, env.host_a.node());
  EXPECT_EQ(from.port, 2000);
}

TEST(HostStack, UnboundPortCountsNoListener) {
  StackPair env;
  env.host_a.send_datagram(2000, {env.host_b.node(), 4242}, Bytes{1});
  env.sim.run();
  EXPECT_EQ(env.host_b.udp().no_listener(), 1u);
}

TEST(HostStack, ReplyPath) {
  StackPair env;
  int b_got = 0, a_got = 0;
  env.host_b.udp().bind(10, [&](Message&, const MsgAttrs& attrs) {
    ++b_got;
    env.host_b.send_datagram(10, attrs.src, Bytes{2});
  });
  env.host_a.udp().bind(20, [&](Message&, const MsgAttrs&) { ++a_got; });
  env.host_a.send_datagram(20, {env.host_b.node(), 10}, Bytes{1});
  env.sim.run();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(a_got, 1);
}

TEST(HostStack, EmptyPayloadSurvivesStack) {
  StackPair env;
  bool got = false;
  std::size_t got_size = 99;
  env.host_b.udp().bind(5, [&](Message& m, const MsgAttrs&) {
    got = true;
    got_size = m.size();
  });
  env.host_a.send_datagram(5, {env.host_b.node(), 5}, Bytes{});
  env.sim.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(got_size, 0u);
}

TEST(HostStack, BindRejectsDuplicatePort) {
  StackPair env;
  env.host_a.udp().bind(9, [](Message&, const MsgAttrs&) {});
  EXPECT_DEATH(env.host_a.udp().bind(9, [](Message&, const MsgAttrs&) {}), "precondition");
}

TEST(HostStack, UnbindStopsDelivery) {
  StackPair env;
  int got = 0;
  env.host_b.udp().bind(7, [&](Message&, const MsgAttrs&) { ++got; });
  env.host_a.send_datagram(7, {env.host_b.node(), 7}, Bytes{1});
  env.sim.run();
  EXPECT_EQ(got, 1);
  env.host_b.udp().unbind(7);
  env.host_a.send_datagram(7, {env.host_b.node(), 7}, Bytes{1});
  env.sim.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(env.host_b.udp().no_listener(), 1u);
}

}  // namespace
}  // namespace rtpb::xkernel
