// Recycled frame bodies (util/frame.hpp BodyPool): a body is handed out
// again only once no frame shares it, whatever still holds the earlier
// frames — a delayed link, a FragLite reassembly, a duplicating link, a
// corrupted copy or a decoded batch whose handler sends replies.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/rtpb.hpp"
#include "core/wire.hpp"
#include "xkernel/fraglite.hpp"
#include "xkernel/graph.hpp"

namespace rtpb {
namespace {

using core::wire::Update;
using core::wire::UpdateBatch;
using core::wire::UpdateBatchEntry;
using xkernel::Message;
using xkernel::MsgAttrs;

TEST(BodyPool, StartsEmptyAndReusesADroppedBody) {
  BodyPool pool;
  EXPECT_EQ(pool.size(), 0u);
  const Bytes* first = nullptr;
  {
    const std::shared_ptr<Bytes> body = pool.acquire(100);
    first = body.get();
    EXPECT_TRUE(body->empty());
    EXPECT_GE(body->capacity(), BodyPool::kMinCapacity);
  }
  EXPECT_EQ(pool.size(), 1u);
  const std::shared_ptr<Bytes> again = pool.acquire(100);
  EXPECT_EQ(again.get(), first);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(BodyPool, AHeldBodyIsNeverHandedOut) {
  BodyPool pool;
  std::vector<std::shared_ptr<Bytes>> held;
  for (int i = 0; i < 10; ++i) {
    held.push_back(pool.acquire(16));
    for (std::size_t j = 0; j + 1 < held.size(); ++j) EXPECT_NE(held[j].get(), held.back().get());
  }
  EXPECT_EQ(pool.size(), 10u);
  held.erase(held.begin() + 3);  // free exactly one
  const std::shared_ptr<Bytes> reused = pool.acquire(16);
  for (const auto& h : held) EXPECT_NE(h.get(), reused.get());
  EXPECT_EQ(pool.size(), 10u);
}

TEST(BodyPool, PrefersAFreeBodyWithRoomAndGrowsInPowersOfTwo) {
  BodyPool pool;
  auto small = pool.acquire(10);
  auto big = pool.acquire(3000);
  EXPECT_EQ(big->capacity(), 4096u);
  const Bytes* big_at = big.get();
  small.reset();
  big.reset();
  // Both are free; only the big one has room.
  EXPECT_EQ(pool.acquire(3000).get(), big_at);
}

TEST(BodyPool, PastItsCapItMakesBodiesItDoesNotKeep) {
  BodyPool pool;
  std::vector<std::shared_ptr<Bytes>> held;
  for (std::size_t i = 0; i < BodyPool::kMaxBodies + 5; ++i) held.push_back(pool.acquire(8));
  EXPECT_EQ(pool.size(), BodyPool::kMaxBodies);
  for (const auto& h : held) EXPECT_GE(h.use_count(), 1);
  held.clear();
  EXPECT_EQ(pool.size(), BodyPool::kMaxBodies);
}

TEST(BodyPool, ABodyGrownPastTheKeptCapacityShrinksForASmallFrame) {
  BodyPool pool;
  pool.acquire(BodyPool::kMaxKeptCapacity + 1).reset();
  const std::shared_ptr<Bytes> small = pool.acquire(64);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_LE(small->capacity(), BodyPool::kMaxKeptCapacity);
}

TEST(BodyPool, PooledEncodeWritesTheSameBytesAsEncode) {
  BodyPool pool;
  const Update u{7, 9, TimePoint{11}, true, Bytes(40, 0x3C), 2};
  for (int i = 0; i < 3; ++i) {
    const Frame f = core::wire::encode(pool, u);
    const auto body = f.body();
    EXPECT_EQ(Bytes(body.begin(), body.end()), core::wire::encode(u));
    EXPECT_TRUE(f.header().empty());
  }
  EXPECT_EQ(pool.size(), 1u);
}

/// Frame `i` of a stream: an update whose every field and value byte names
/// `i`, with a size that varies from frame to frame.
Update numbered(std::uint32_t i, std::size_t base = 24) {
  return Update{i, i, TimePoint{static_cast<std::int64_t>(i)}, false,
                Bytes(base + i % 41, static_cast<std::uint8_t>(i * 7 + 1)), 1};
}

/// Two hosts over one link.  Host a sends frame i of a stream from the
/// simulator's pool every `gap`; host b checks each delivery byte for byte
/// against a fresh encode of frame i.
struct PooledStream {
  static constexpr net::Port kPort = 50;
  sim::Simulator sim{3};
  net::Network network{sim};
  xkernel::HostStack a{network};
  xkernel::HostStack b{network};
  std::map<std::uint32_t, int> delivered;
  int mismatches = 0;

  explicit PooledStream(const net::LinkParams& link) {
    network.connect(a.node(), b.node(), link);
    b.udp().bind(kPort, [this](Message& m, const MsgAttrs&) { check(m.contents()); });
  }

  void check(std::span<const std::uint8_t> bytes) {
    const auto decoded = core::wire::decode(bytes);
    const auto* u = decoded ? std::get_if<Update>(&*decoded) : nullptr;
    if (u == nullptr || Bytes(bytes.begin(), bytes.end()) != core::wire::encode(numbered(u->object))) {
      ++mismatches;
      return;
    }
    ++delivered[u->object];
  }

  void send_every(Duration gap, std::uint32_t frames) {
    for (std::uint32_t i = 0; i < frames; ++i) {
      sim.schedule_at(TimePoint::zero() + Duration{gap.nanos() * i}, [this, i] {
        a.send_message(kPort, {b.node(), kPort},
                       Message{core::wire::encode(sim.body_pool(), numbered(i))});
      });
    }
    sim.run();
  }
};

TEST(BodyPoolReuse, FramesInFlightOnADelayedLinkArriveIntact) {
  // 1 ms apart over 20 ms: about 20 bodies in flight, recycled all run.
  // 50 µs apart: about 400 in flight, past the pool's cap.
  for (const Duration gap : {millis(1), micros(50)}) {
    net::LinkParams link;
    link.propagation = millis(20);
    link.jitter = millis(1);
    link.bandwidth_bps = 0;
    PooledStream s(link);
    s.send_every(gap, 600);
    EXPECT_EQ(s.mismatches, 0);
    ASSERT_EQ(s.delivered.size(), 600u);
    for (const auto& [i, n] : s.delivered) EXPECT_EQ(n, 1) << "frame " << i;
    EXPECT_LE(s.sim.body_pool().size(), BodyPool::kMaxBodies);
    if (gap == millis(1)) {
      EXPECT_LT(s.sim.body_pool().size(), 40u);
    }
  }
}

TEST(BodyPoolReuse, DuplicatedFramesBothArriveIntact) {
  net::LinkParams link;
  link.propagation = millis(5);
  link.faults.duplicate_probability = 1.0;
  PooledStream s(link);
  s.send_every(micros(300), 500);
  EXPECT_EQ(s.mismatches, 0);
  ASSERT_EQ(s.delivered.size(), 500u);
  for (const auto& [i, n] : s.delivered) EXPECT_EQ(n, 2) << "frame " << i;
}

TEST(BodyPoolReuse, CorruptedCopiesNeverTouchTheSharedBody) {
  // Each flip lands in a private copy of the body and fails UDPLITE's
  // checksum; every other frame, a duplicate of a corrupted one included,
  // must arrive with the pooled body's bytes.
  net::LinkParams link;
  link.propagation = millis(5);
  link.faults.duplicate_probability = 0.5;
  link.faults.corrupt_probability = 0.3;
  link.faults.corrupt_skip = Frame::kHeaderCapacity;
  PooledStream s(link);
  s.send_every(micros(300), 500);
  EXPECT_EQ(s.mismatches, 0);
  std::uint64_t arrived = 0;
  for (const auto& [i, n] : s.delivered) arrived += static_cast<std::uint64_t>(n);
  EXPECT_GT(arrived, 400u);
  EXPECT_GT(s.b.udp().checksum_failures(), 0u);
}

TEST(BodyPoolReuse, AFlippedCopyLeavesThePooledBodyAndItsHolder) {
  BodyPool pool;
  const Update u = numbered(5);
  const Frame original = core::wire::encode(pool, u);
  Frame copy = original;
  copy.flip(3, 0xFF);
  EXPECT_NE(copy.body_view().buf, original.body_view().buf);
  EXPECT_EQ(original.to_bytes(), core::wire::encode(u));
  copy = Frame{};
  // The original still holds its body: the next encode gets another one.
  const Frame next = core::wire::encode(pool, numbered(6));
  EXPECT_NE(next.body_view().buf, original.body_view().buf);
  EXPECT_EQ(original.to_bytes(), core::wire::encode(u));
  EXPECT_EQ(next.to_bytes(), core::wire::encode(numbered(6)));
}

TEST(BodyPoolReuse, FragmentsHeldInReassemblyKeepTheirBody) {
  // Multi-fragment messages over a reordering link: fragments of several
  // messages wait in reassembly, each a view of its message's pooled body,
  // while later messages are encoded from the same pool.
  sim::Simulator sim{11};
  net::Network network{sim};
  xkernel::HostStack a{network};
  xkernel::HostStack b{network};
  xkernel::FragLite frag_a{sim, 100};
  xkernel::FragLite frag_b{sim, 100};
  net::LinkParams link;
  link.propagation = millis(3);
  link.faults.reorder_probability = 0.5;
  link.faults.reorder_extra = millis(6);
  network.connect(a.node(), b.node(), link);
  frag_a.connect_down(a.udp());
  frag_b.connect_down(b.udp());
  b.udp().bind(50, [&](Message& m, const MsgAttrs& attrs) {
    MsgAttrs copy = attrs;
    frag_b.demux(m, copy);
  });
  std::map<std::uint32_t, int> delivered;
  int mismatches = 0;
  frag_b.set_handler([&](Message& m, const MsgAttrs&) {
    const auto bytes = m.contents();
    const auto decoded = core::wire::decode(bytes);
    const auto* u = decoded ? std::get_if<Update>(&*decoded) : nullptr;
    if (u == nullptr ||
        Bytes(bytes.begin(), bytes.end()) != core::wire::encode(numbered(u->object, 400))) {
      ++mismatches;
      return;
    }
    ++delivered[u->object];
  });
  constexpr std::uint32_t kMessages = 300;
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    sim.schedule_at(TimePoint::zero() + micros(500) * i, [&, i] {
      Message msg{core::wire::encode(sim.body_pool(), numbered(i, 400))};
      MsgAttrs attrs;
      attrs.src = {a.node(), 50};
      attrs.dst = {b.node(), 50};
      frag_a.push(msg, attrs);
    });
  }
  sim.run();
  EXPECT_EQ(mismatches, 0);
  ASSERT_EQ(delivered.size(), kMessages);
  for (const auto& [i, n] : delivered) EXPECT_EQ(n, 1) << "message " << i;
  EXPECT_GT(frag_b.messages_reassembled(), 0u);
  EXPECT_LT(sim.body_pool().size(), BodyPool::kMaxBodies);
}

UpdateBatch numbered_batch(std::uint32_t entries) {
  UpdateBatch b;
  for (std::uint32_t i = 1; i <= entries; ++i) {
    const Update u = numbered(i);
    b.entries.push_back(UpdateBatchEntry{u.object, u.version, u.timestamp, u.value});
  }
  b.epoch = 4;
  return b;
}

TEST(BodyPoolReuse, ADecodedBatchKeepsItsBodyWhileItsHandlerReplies) {
  BodyPool pool;
  const UpdateBatch sent = numbered_batch(16);
  Message held{core::wire::encode(pool, sent)};
  const SharedBytes batch_body = held.frame().body_view().buf;
  const auto decoded = core::wire::decode(held.contents());
  ASSERT_TRUE(decoded.has_value());
  std::vector<Frame> replies;
  std::uint32_t expect = 1;
  for (const UpdateBatchEntry& e : std::get<UpdateBatch>(*decoded).entries) {
    // What the entry borrows is still the frame's bytes...
    EXPECT_EQ(e.object, expect);
    EXPECT_EQ(e.value, numbered(expect).value);
    // ...while the handler encodes replies, some kept and some dropped
    // at once, from the same pool.
    replies.push_back(core::wire::encode(pool, core::wire::UpdateAck{e.object, e.version, 4}));
    (void)core::wire::encode(pool, core::wire::Ping{e.version, 4});
    for (const Frame& r : replies) EXPECT_NE(r.body_view().buf, batch_body);
    ++expect;
  }
  EXPECT_EQ(expect, 17u);
  EXPECT_EQ(held.to_bytes(), core::wire::encode(sent));
}

TEST(BodyPoolReuse, AckModeBatchesApplyTheValuesThePrimaryWrote) {
  // Every backup acks every batched entry from inside the batch handler,
  // so each ack is encoded from the pool while the batch is borrowed.
  core::ServiceParams params;
  params.seed = 9;
  params.backup_count = 3;
  params.link.propagation = millis(2);
  params.link.jitter = millis(1);
  params.config.batch_updates = true;
  params.config.ack_every_update = true;
  core::RtpbService service(params);
  service.start();
  for (core::ObjectId id = 1; id <= 8; ++id) {
    core::ObjectSpec spec;
    spec.id = id;
    spec.name = std::string("obj").append(std::to_string(id));
    spec.size_bytes = 32 + 16 * id;
    spec.client_period = millis(10);
    spec.client_exec = micros(100);
    spec.update_exec = micros(200);
    spec.delta_primary = millis(20);
    spec.delta_backup = millis(100);
    ASSERT_TRUE(service.register_object(spec).ok());
  }
  int compared = 0;
  for (int step = 0; step < 40; ++step) {
    service.run_for(millis(37));
    for (const auto& backup : service.backups()) {
      EXPECT_EQ(backup->undecodable_frames(), 0u);
      for (core::ObjectId id = 1; id <= 8; ++id) {
        const core::ObjectState* at_primary = service.primary().peek(id);
        const core::ObjectState* at_backup = backup->peek(id);
        ASSERT_NE(at_primary, nullptr);
        ASSERT_NE(at_backup, nullptr);
        if (at_backup->version != at_primary->version) continue;
        EXPECT_EQ(at_backup->value, at_primary->value) << "object " << id;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 30);
  for (const auto& backup : service.backups()) EXPECT_GT(backup->acks_sent(), 0u);
}

}  // namespace
}  // namespace rtpb
