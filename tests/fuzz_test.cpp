// Randomised robustness tests: the wire decoder, the x-kernel message
// buffer and the event queue are exercised with adversarial inputs and
// checked against reference models.  These are the surfaces that consume
// untrusted bytes (anything off the network) or carry the whole
// simulation's correctness.
#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "core/object_store.hpp"
#include "core/wire.hpp"
#include "sim/simulator.hpp"
#include "store/wal.hpp"
#include "util/rng.hpp"
#include "xkernel/message.hpp"
#include "xkernel/udplite.hpp"

namespace rtpb {
namespace {

TEST(WireFuzz, RandomBytesNeverCrashDecoder) {
  Rng rng(0xF00D);
  for (int trial = 0; trial < 5000; ++trial) {
    Bytes junk(static_cast<std::size_t>(rng.uniform(0, 200)));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    const auto decoded = core::wire::decode(junk);
    if (decoded) {
      // If it decoded, the tag byte must be one of the 14 live tags (1..15
      // with the retired 13 excluded) and name the decoded message.
      const std::uint8_t t = junk.front();
      EXPECT_GE(t, 1);
      EXPECT_LE(t, 15);
      EXPECT_NE(t, 13);
      EXPECT_EQ(t, static_cast<std::uint8_t>(core::wire::type_of(*decoded)));
    }
  }
}

TEST(WireFuzz, TruncationsOfValidMessagesNeverDecodeToWrongType) {
  core::wire::StateTransfer st;
  st.transfer_id = 42;
  core::wire::StateEntry e;
  e.spec.id = 1;
  e.spec.name = "fuzzed-object";
  e.spec.client_period = millis(10);
  e.value = Bytes(100, 0xAA);
  st.entries.push_back(e);
  const Bytes full = core::wire::encode(st);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Bytes truncated(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(core::wire::decode(truncated).has_value()) << "cut=" << cut;
  }
}

TEST(WireFuzz, SingleByteMutationsEitherFailOrKeepType) {
  const Bytes original = core::wire::encode(core::wire::Update{
      3, 77, TimePoint{123456}, false, Bytes{1, 2, 3, 4, 5, 6, 7, 8}});
  Rng rng(0xBEEF);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes mutated = original;
    const auto pos = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(mutated.size()) - 1));
    mutated[pos] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    const auto decoded = core::wire::decode(mutated);
    // Mutating the tag byte may produce a different (or no) message; any
    // other single-byte flip must still decode as an Update or fail —
    // never crash or misattribute the payload length.
    if (decoded && pos != 0) {
      EXPECT_EQ(core::wire::type_of(*decoded), core::wire::MsgType::kUpdate);
    }
  }
}

TEST(WireFuzz, UpdateBatchMutationsNeverCrashOrMisparse) {
  core::wire::UpdateBatch batch;
  for (std::uint32_t i = 0; i < 6; ++i) {
    batch.entries.push_back(core::wire::UpdateBatchEntry{
        i + 1, i * 10 + 1, TimePoint{static_cast<std::int64_t>(i) * 1000},
        Bytes(8 + i * 4, static_cast<std::uint8_t>(i))});
  }
  batch.epoch = 12;
  const Bytes original = core::wire::encode(batch);
  Rng rng(0xD00F);
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes mutated = original;
    // 1-3 random byte mutations per trial: hits the count field, the
    // per-entry length prefixes and the epoch tail.
    const int flips = static_cast<int>(rng.uniform(1, 3));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[pos] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    }
    const auto decoded = core::wire::decode(mutated);
    if (decoded && core::wire::type_of(*decoded) == core::wire::MsgType::kUpdateBatch) {
      // If it still parsed as a batch, the entry list must be internally
      // consistent — the decoder never hands back a half-read frame.
      EXPECT_LE(std::get<core::wire::UpdateBatch>(*decoded).entries.size(),
                mutated.size() / 24 + 1);
    }
  }
}

TEST(WireFuzz, UpdateBatchTruncationsNeverDecode) {
  core::wire::UpdateBatch batch;
  for (std::uint32_t i = 0; i < 4; ++i) {
    batch.entries.push_back(core::wire::UpdateBatchEntry{
        i + 1, 100 + i, TimePoint{static_cast<std::int64_t>(i) * 500},
        Bytes(5 + i, static_cast<std::uint8_t>(0xB0 + i))});
  }
  batch.epoch = 7;
  const Bytes full = core::wire::encode(batch);
  // Every strict prefix must be rejected: the entry count pins the list
  // length and the trailing epoch pins the total, so no cut can silently
  // decode as a shorter batch.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Bytes truncated(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(core::wire::decode(truncated).has_value()) << "cut=" << cut;
  }
}

TEST(WireFuzz, UpdateBatchAdversarialEntryCountsRejectedWithoutAllocating) {
  core::wire::UpdateBatch batch;
  batch.entries.push_back(core::wire::UpdateBatchEntry{1, 1, TimePoint{1}, Bytes(8, 0xAA)});
  batch.epoch = 3;
  const Bytes original = core::wire::encode(batch);
  // Forge the u32 entry count (bytes 1..4, little-endian) to every kind of
  // lie: zero, off-by-one, huge, and all-ones.  The decoder must reject
  // each before reserving storage for the claimed count — a crash or an
  // out-of-memory here means the count was trusted.
  for (const std::uint32_t forged :
       {0u, 2u, 3u, 0x0000ffffu, 0x00ffffffu, 0x7fffffffu, 0xffffffffu}) {
    Bytes lied = original;
    lied[1] = static_cast<std::uint8_t>(forged & 0xff);
    lied[2] = static_cast<std::uint8_t>((forged >> 8) & 0xff);
    lied[3] = static_cast<std::uint8_t>((forged >> 16) & 0xff);
    lied[4] = static_cast<std::uint8_t>((forged >> 24) & 0xff);
    EXPECT_FALSE(core::wire::decode(lied).has_value()) << "count=" << forged;
  }
}

TEST(WireFuzz, UpdateBatchRoundTripPreservesEveryField) {
  core::wire::UpdateBatch batch;
  for (std::uint32_t i = 0; i < 5; ++i) {
    batch.entries.push_back(core::wire::UpdateBatchEntry{
        i * 7 + 1, (i + 1) * 1000, TimePoint{static_cast<std::int64_t>(i) * 12345},
        Bytes(i * 3, static_cast<std::uint8_t>(i))});
  }
  batch.epoch = 0xDEADBEEFULL;
  const Bytes frame = core::wire::encode(batch);
  const auto decoded = core::wire::decode(frame);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(core::wire::type_of(*decoded), core::wire::MsgType::kUpdateBatch);
  const auto& rt = std::get<core::wire::UpdateBatch>(*decoded);
  EXPECT_EQ(rt.epoch, batch.epoch);
  ASSERT_EQ(rt.entries.size(), batch.entries.size());
  for (std::size_t i = 0; i < rt.entries.size(); ++i) {
    EXPECT_EQ(rt.entries[i].object, batch.entries[i].object);
    EXPECT_EQ(rt.entries[i].version, batch.entries[i].version);
    EXPECT_EQ(rt.entries[i].timestamp, batch.entries[i].timestamp);
    EXPECT_EQ(rt.entries[i].value, batch.entries[i].value);
  }
}

TEST(WireFuzz, ConstraintFramesRoundTripPreservesEveryField) {
  core::wire::ConstraintDowngrade down;
  down.object = 9;
  down.delta_primary = millis(30);
  down.delta_backup = millis(480);
  down.update_period = millis(55);
  down.qos_seq = 17;
  down.epoch = 4;
  const auto d = core::wire::decode(core::wire::encode(down));
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(core::wire::type_of(*d), core::wire::MsgType::kConstraintDowngrade);
  const auto& dd = std::get<core::wire::ConstraintDowngrade>(*d);
  EXPECT_EQ(dd.object, down.object);
  EXPECT_EQ(dd.delta_primary, down.delta_primary);
  EXPECT_EQ(dd.delta_backup, down.delta_backup);
  EXPECT_EQ(dd.update_period, down.update_period);
  EXPECT_EQ(dd.qos_seq, down.qos_seq);
  EXPECT_EQ(dd.epoch, down.epoch);

  core::wire::ConstraintRestore rest;
  rest.object = 9;
  rest.delta_backup = millis(160);
  rest.update_period = millis(20);
  rest.qos_seq = 18;
  rest.epoch = 4;
  const auto r = core::wire::decode(core::wire::encode(rest));
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(core::wire::type_of(*r), core::wire::MsgType::kConstraintRestore);
  const auto& rr = std::get<core::wire::ConstraintRestore>(*r);
  EXPECT_EQ(rr.object, rest.object);
  EXPECT_EQ(rr.delta_backup, rest.delta_backup);
  EXPECT_EQ(rr.update_period, rest.update_period);
  EXPECT_EQ(rr.qos_seq, rest.qos_seq);
  EXPECT_EQ(rr.epoch, rest.epoch);
}

TEST(WireFuzz, ConstraintTruncationsNeverDecode) {
  core::wire::ConstraintDowngrade down;
  down.object = 2;
  down.delta_backup = millis(320);
  down.qos_seq = 5;
  core::wire::ConstraintRestore rest;
  rest.object = 2;
  rest.delta_backup = millis(160);
  rest.qos_seq = 6;
  for (const Bytes& full : {core::wire::encode(down), core::wire::encode(rest)}) {
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      Bytes truncated(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_FALSE(core::wire::decode(truncated).has_value()) << "cut=" << cut;
    }
  }
}

TEST(WireFuzz, ConstraintMutationsKeepTypeOrFail) {
  // Both QoS frames are fixed-size with raw integer fields: every non-tag
  // single-byte mutation is still a structurally valid frame, so it MUST
  // decode, as the same type (a decode failure would mean the decoder is
  // conflating field bytes with framing).  Tag mutations may turn the
  // frame into anything or nothing — they only have to not crash.
  const Bytes down = core::wire::encode(core::wire::ConstraintDowngrade{
      4, millis(30), millis(480), millis(50), 21, 2});
  const Bytes rest = core::wire::encode(core::wire::ConstraintRestore{
      4, millis(160), millis(25), 22, 2});
  Rng rng(0xFACE);
  for (int trial = 0; trial < 2000; ++trial) {
    const bool use_down = rng.bernoulli(0.5);
    Bytes mutated = use_down ? down : rest;
    const auto pos = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(mutated.size()) - 1));
    mutated[pos] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    const auto decoded = core::wire::decode(mutated);
    if (pos != 0) {
      ASSERT_TRUE(decoded.has_value()) << "pos=" << pos;
      EXPECT_EQ(core::wire::type_of(*decoded), use_down
                                                   ? core::wire::MsgType::kConstraintDowngrade
                                                   : core::wire::MsgType::kConstraintRestore);
    }
  }
}

TEST(WireFuzz, ResyncRequestRoundTripPreservesEveryField) {
  core::wire::ResyncRequest rq;
  for (std::uint32_t i = 0; i < 7; ++i) {
    rq.have.push_back(core::wire::ResyncEntry{i + 1, i * 1000 + 3, i * 2});
  }
  const auto decoded = core::wire::decode(core::wire::encode(rq));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(core::wire::type_of(*decoded), core::wire::MsgType::kResyncRequest);
  const auto& rt = std::get<core::wire::ResyncRequest>(*decoded);
  ASSERT_EQ(rt.have.size(), rq.have.size());
  for (std::size_t i = 0; i < rt.have.size(); ++i) {
    EXPECT_EQ(rt.have[i].object, rq.have[i].object);
    EXPECT_EQ(rt.have[i].version, rq.have[i].version);
    EXPECT_EQ(rt.have[i].qos_seq, rq.have[i].qos_seq);
  }
  // The epoch must round-trip as the bootstrap wildcard the protocol
  // relies on — a fenced resync request would strand every rejoiner.
  EXPECT_EQ(rt.epoch, 0u);
}

TEST(WireFuzz, ResyncRequestTruncationsNeverDecode) {
  core::wire::ResyncRequest rq;
  rq.have.push_back(core::wire::ResyncEntry{1, 42, 0});
  rq.have.push_back(core::wire::ResyncEntry{2, 7, 3});
  const Bytes full = core::wire::encode(rq);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Bytes truncated(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(core::wire::decode(truncated).has_value()) << "cut=" << cut;
  }
}

TEST(WireFuzz, ResyncRequestAdversarialEntryCountsRejected) {
  core::wire::ResyncRequest rq;
  rq.have.push_back(core::wire::ResyncEntry{1, 1, 0});
  const Bytes original = core::wire::encode(rq);
  // Forge the u32 entry count (bytes 1..4, little-endian): the decoder
  // must reject every lie before reserving storage for the claimed count.
  for (const std::uint32_t forged :
       {0u, 2u, 3u, 0x0000ffffu, 0x00ffffffu, 0x7fffffffu, 0xffffffffu}) {
    Bytes lied = original;
    lied[1] = static_cast<std::uint8_t>(forged & 0xff);
    lied[2] = static_cast<std::uint8_t>((forged >> 8) & 0xff);
    lied[3] = static_cast<std::uint8_t>((forged >> 16) & 0xff);
    lied[4] = static_cast<std::uint8_t>((forged >> 24) & 0xff);
    EXPECT_FALSE(core::wire::decode(lied).has_value()) << "count=" << forged;
  }
}

namespace {

core::wire::StateDelta sample_delta() {
  core::wire::StateDelta sd;
  sd.transfer_id = 99;
  for (std::uint32_t i = 0; i < 3; ++i) {
    core::wire::StateEntry e;
    e.spec.id = i + 1;
    e.spec.name = "delta-" + std::to_string(i + 1);
    e.spec.client_period = millis(10 + i);
    e.spec.delta_primary = millis(20);
    e.spec.delta_backup = millis(100 + i * 10);
    e.update_period = millis(5 + i);
    e.version = 1000 + i;
    e.timestamp = TimePoint{static_cast<std::int64_t>(i) * 777};
    e.value = Bytes(16 + i * 8, static_cast<std::uint8_t>(0xC0 + i));
    sd.entries.push_back(std::move(e));
  }
  sd.constraints.push_back(core::InterObjectConstraint{1, 2, millis(40)});
  sd.epoch = 6;
  return sd;
}

}  // namespace

TEST(WireFuzz, StateDeltaRoundTripPreservesEveryField) {
  const core::wire::StateDelta sd = sample_delta();
  const auto decoded = core::wire::decode(core::wire::encode(sd));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(core::wire::type_of(*decoded), core::wire::MsgType::kStateDelta);
  const auto& rt = std::get<core::wire::StateDelta>(*decoded);
  EXPECT_EQ(rt.transfer_id, sd.transfer_id);
  EXPECT_EQ(rt.epoch, sd.epoch);
  ASSERT_EQ(rt.entries.size(), sd.entries.size());
  for (std::size_t i = 0; i < rt.entries.size(); ++i) {
    EXPECT_EQ(rt.entries[i].spec.id, sd.entries[i].spec.id);
    EXPECT_EQ(rt.entries[i].spec.name, sd.entries[i].spec.name);
    EXPECT_EQ(rt.entries[i].spec.delta_backup, sd.entries[i].spec.delta_backup);
    EXPECT_EQ(rt.entries[i].update_period, sd.entries[i].update_period);
    EXPECT_EQ(rt.entries[i].version, sd.entries[i].version);
    EXPECT_EQ(rt.entries[i].timestamp, sd.entries[i].timestamp);
    EXPECT_EQ(rt.entries[i].value, sd.entries[i].value);
  }
  ASSERT_EQ(rt.constraints.size(), 1u);
  EXPECT_EQ(rt.constraints[0].first, 1u);
  EXPECT_EQ(rt.constraints[0].second, 2u);
  EXPECT_EQ(rt.constraints[0].delta, millis(40));
}

TEST(WireFuzz, StateDeltaTruncationsNeverDecode) {
  const Bytes full = core::wire::encode(sample_delta());
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Bytes truncated(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(core::wire::decode(truncated).has_value()) << "cut=" << cut;
  }
}

TEST(WireFuzz, StateDeltaMutationsNeverCrashOrMisparse) {
  const Bytes original = core::wire::encode(sample_delta());
  Rng rng(0xD317A);
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes mutated = original;
    const int flips = static_cast<int>(rng.uniform(1, 3));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[pos] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    }
    const auto decoded = core::wire::decode(mutated);
    if (decoded && core::wire::type_of(*decoded) == core::wire::MsgType::kStateDelta) {
      // If it still parsed as a delta, the entry list must be internally
      // consistent — never a half-read frame.
      EXPECT_LE(std::get<core::wire::StateDelta>(*decoded).entries.size(), mutated.size());
    }
  }
}

TEST(WalFuzz, RandomLogsNeverCrashReplay) {
  Rng rng(0x3A11);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes junk(static_cast<std::size_t>(rng.uniform(0, 256)));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    std::size_t delivered = 0;
    const store::ReplayStats s = store::replay(
        junk, [&delivered](std::span<const std::uint8_t>) { ++delivered; });
    // Whatever the bytes, the stats must balance: every delivered payload
    // was a valid record, and the torn tail accounts for the rest.
    EXPECT_EQ(s.records, delivered);
    EXPECT_LE(s.torn_bytes, junk.size());
    if (!s.clean) {
      EXPECT_GT(s.torn_bytes, 0u);
    }
  }
}

TEST(WalFuzz, CorruptionStopsReplayAtFirstBadFrame) {
  // Three framed records; flipping any byte inside record k must cut the
  // replay to exactly the k records before it (CRC prefix discipline).
  std::vector<Bytes> frames;
  std::vector<std::size_t> starts;
  Bytes log;
  for (std::uint32_t i = 0; i < 3; ++i) {
    store::WriteRecord w;
    w.object = i + 1;
    w.version = 10 + i;
    w.timestamp = TimePoint{static_cast<std::int64_t>(i) * 100};
    w.origin_timestamp = w.timestamp;
    w.value = Bytes(24, static_cast<std::uint8_t>(i));
    const Bytes frame = store::frame_record(store::encode(w));
    starts.push_back(log.size());
    frames.push_back(frame);
    log.insert(log.end(), frame.begin(), frame.end());
  }
  Rng rng(0xBADC);
  for (int trial = 0; trial < 500; ++trial) {
    const auto k = static_cast<std::size_t>(rng.uniform(0, 2));
    const auto off = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(frames[k].size()) - 1));
    Bytes corrupted = log;
    corrupted[starts[k] + off] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    const store::ReplayStats s = store::replay(corrupted, [](auto) {});
    EXPECT_LE(s.records, k) << "k=" << k << " off=" << off;
    EXPECT_FALSE(s.clean && s.records < 3);
  }
}

TEST(WalFuzz, DuplicateAndOverlappingRecordsAreDeliveredVerbatim) {
  // Duplicate suppression is the recovery layer's job (version gating);
  // the codec must deliver every well-framed record, duplicates included.
  store::WriteRecord w;
  w.object = 5;
  w.version = 1;
  w.value = Bytes(8, 0xEE);
  const Bytes frame = store::frame_record(store::encode(w));
  Bytes log;
  for (int i = 0; i < 4; ++i) log.insert(log.end(), frame.begin(), frame.end());
  std::size_t seen = 0;
  const store::ReplayStats s = store::replay(log, [&seen](auto) { ++seen; });
  EXPECT_EQ(s.records, 4u);
  EXPECT_EQ(seen, 4u);
  EXPECT_TRUE(s.clean);

  // An "overlapping" log — a record whose length field swallows the next
  // frame's bytes — fails its CRC and cuts the replay there.
  Bytes overlap = log;
  overlap[0] = static_cast<std::uint8_t>(overlap[0] + 4);  // inflate len of record 0
  const store::ReplayStats o = store::replay(overlap, [](auto) {});
  EXPECT_EQ(o.records, 0u);
  EXPECT_FALSE(o.clean);
}

TEST(WalFuzz, AbsurdCheckpointCountsRejectedByRecordDecoder) {
  store::CheckpointRecord cp;
  cp.epoch = 2;
  core::ObjectState st;
  st.spec.id = 1;
  st.spec.client_period = millis(10);
  cp.states.push_back(st);
  Bytes payload = store::encode(cp);
  ASSERT_TRUE(store::decode_record(payload).has_value());
  // The state count sits after kind(1) + epoch(8) + next_transfer_id(8);
  // forge it to every kind of lie — each must be rejected, not reserved.
  const std::size_t count_at = 1 + 8 + 8;
  for (const std::uint32_t forged : {0u, 2u, 0x0000ffffu, 0x7fffffffu, 0xffffffffu}) {
    Bytes lied = payload;
    lied[count_at] = static_cast<std::uint8_t>(forged & 0xff);
    lied[count_at + 1] = static_cast<std::uint8_t>((forged >> 8) & 0xff);
    lied[count_at + 2] = static_cast<std::uint8_t>((forged >> 16) & 0xff);
    lied[count_at + 3] = static_cast<std::uint8_t>((forged >> 24) & 0xff);
    EXPECT_FALSE(store::decode_record(lied).has_value()) << "count=" << forged;
  }
}

TEST(MessageFuzz, RandomPushPopMatchesReferenceModel) {
  Rng rng(0xCAFE);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes payload(static_cast<std::size_t>(rng.uniform(0, 64)), 0x11);
    xkernel::Message msg(payload);
    std::deque<std::uint8_t> model(payload.begin(), payload.end());

    for (int op = 0; op < 50; ++op) {
      if (rng.bernoulli(0.5)) {
        Bytes hdr(static_cast<std::size_t>(rng.uniform(1, 40)));
        for (auto& b : hdr) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
        msg.push(hdr);
        model.insert(model.begin(), hdr.begin(), hdr.end());
      } else if (!model.empty()) {
        const auto n = static_cast<std::size_t>(
            rng.uniform(1, static_cast<std::int64_t>(model.size())));
        const auto popped = msg.pop(n);
        ASSERT_EQ(popped.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(popped[i], model.front());
          model.pop_front();
        }
      }
      ASSERT_EQ(msg.size(), model.size());
    }
    const Bytes rest = msg.to_bytes();
    ASSERT_EQ(rest, Bytes(model.begin(), model.end()));
  }
}

TEST(EventQueueFuzz, RandomScheduleCancelRespectsOrderAndCancellation) {
  Rng rng(0xABCD);
  for (int trial = 0; trial < 50; ++trial) {
    sim::Simulator sim;
    struct Planned {
      TimePoint at;
      bool cancelled;
    };
    std::vector<Planned> plan;
    std::vector<sim::EventHandle> handles;
    std::vector<std::size_t> fired;

    for (std::size_t i = 0; i < 300; ++i) {
      const TimePoint at{rng.uniform(0, 10'000)};
      plan.push_back({at, false});
      handles.push_back(sim.schedule_at(at, [&fired, i] { fired.push_back(i); }));
    }
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (rng.bernoulli(0.3)) {
        plan[i].cancelled = true;
        EXPECT_TRUE(handles[i].cancel());
      }
    }
    sim.run();

    // Every non-cancelled event fired exactly once, in nondecreasing time,
    // with scheduling order breaking ties.
    std::size_t expected = 0;
    for (const auto& p : plan) {
      if (!p.cancelled) ++expected;
    }
    ASSERT_EQ(fired.size(), expected);
    for (std::size_t k = 1; k < fired.size(); ++k) {
      const auto a = fired[k - 1];
      const auto b = fired[k];
      ASSERT_TRUE(plan[a].at < plan[b].at || (plan[a].at == plan[b].at && a < b));
    }
    for (auto idx : fired) ASSERT_FALSE(plan[idx].cancelled);
  }
}

TEST(ChecksumFuzz, EverySingleBitFlipDetected) {
  Bytes data(64, 0);
  Rng rng(0x5151);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
  const auto good = xkernel::UdpLite::checksum(data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes corrupted = data;
      corrupted[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(xkernel::UdpLite::checksum(corrupted), good)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(StoreFuzz, RandomOpsMatchModel) {
  Rng rng(0x9999);
  core::ObjectStore store;
  std::map<core::ObjectId, std::pair<std::uint64_t, Bytes>> model;  // id -> (version, value)
  for (int op = 0; op < 2000; ++op) {
    const auto id = static_cast<core::ObjectId>(rng.uniform(1, 20));
    const int what = static_cast<int>(rng.uniform(0, 3));
    if (what == 0) {
      core::ObjectSpec spec;
      spec.id = id;
      spec.client_period = millis(10);
      const bool inserted = store.insert(spec);
      EXPECT_EQ(inserted, !model.contains(id));
      if (inserted) model[id] = {0, {}};
    } else if (what == 1 && model.contains(id)) {
      Bytes v{static_cast<std::uint8_t>(rng.uniform(0, 255))};
      const auto ver = store.write(id, v, TimePoint{op});
      auto& entry = model[id];
      ++entry.first;
      entry.second = v;
      EXPECT_EQ(ver, entry.first);
    } else if (what == 2 && model.contains(id)) {
      const auto version = static_cast<std::uint64_t>(rng.uniform(0, 8));
      Bytes v{static_cast<std::uint8_t>(rng.uniform(0, 255))};
      const bool applied = store.apply(id, version, TimePoint{op}, v, TimePoint{op});
      auto& entry = model[id];
      EXPECT_EQ(applied, version > entry.first);
      if (applied) entry = {version, v};
    }
    if (model.contains(id)) {
      const auto& s = store.get(id);
      EXPECT_EQ(s.version, model[id].first);
      EXPECT_EQ(s.value, model[id].second);
    }
  }
}

}  // namespace
}  // namespace rtpb
