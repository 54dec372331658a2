#include "core/wire.hpp"

#include <gtest/gtest.h>

namespace rtpb::core::wire {
namespace {

/// The decoded `M`, or nullptr when the frame did not decode to one.
template <class M>
const M* decoded_as(const std::optional<AnyMessage>& d) {
  return d ? std::get_if<M>(&*d) : nullptr;
}
template <class M>
const M* decoded_as(const std::optional<AnyMessage>&&) = delete;  // would dangle

TEST(Wire, UpdateRoundTrip) {
  Update u;
  u.object = 17;
  u.version = 123456789;
  u.timestamp = TimePoint{987654321};
  u.retransmission = true;
  u.value = Bytes{9, 8, 7, 6};

  const auto decoded = decode(encode(u));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(type_of(*decoded), MsgType::kUpdate);
  const Update* d = decoded_as<Update>(decoded);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->object, u.object);
  EXPECT_EQ(d->version, u.version);
  EXPECT_EQ(d->timestamp, u.timestamp);
  EXPECT_TRUE(d->retransmission);
  EXPECT_EQ(d->value, u.value);
}

TEST(Wire, UpdateAckRoundTrip) {
  const auto decoded = decode(encode(UpdateAck{5, 99}));
  const auto* d = decoded_as<UpdateAck>(decoded);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->object, 5u);
  EXPECT_EQ(d->version, 99u);
}

TEST(Wire, RetransmitRequestRoundTrip) {
  const auto decoded = decode(encode(RetransmitRequest{3, 42}));
  const auto* d = decoded_as<RetransmitRequest>(decoded);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->object, 3u);
  EXPECT_EQ(d->have_version, 42u);
}

TEST(Wire, PingAndAckRoundTrip) {
  const auto p_frame = decode(encode(Ping{77}));
  const auto* p = decoded_as<Ping>(p_frame);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->seq, 77u);
  const auto a_frame = decode(encode(PingAck{77}));
  const auto* a = decoded_as<PingAck>(a_frame);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->seq, 77u);
}

TEST(Wire, StateTransferRoundTrip) {
  StateTransfer st;
  st.transfer_id = 1001;
  StateEntry e;
  e.spec.id = 4;
  e.spec.name = "altitude";
  e.spec.size_bytes = 16;
  e.spec.client_period = millis(10);
  e.spec.client_exec = millis(1);
  e.spec.update_exec = micros(500);
  e.spec.delta_primary = millis(20);
  e.spec.delta_backup = millis(80);
  e.update_period = millis(25);
  e.version = 9;
  e.timestamp = TimePoint{555};
  e.value = Bytes{1, 2, 3};
  st.entries.push_back(e);
  st.constraints.push_back(InterObjectConstraint{4, 5, millis(30)});

  const auto decoded = decode(encode(st));
  ASSERT_NE(decoded_as<StateTransfer>(decoded), nullptr);
  const StateTransfer& d = *decoded_as<StateTransfer>(decoded);
  EXPECT_EQ(d.transfer_id, 1001u);
  ASSERT_EQ(d.entries.size(), 1u);
  EXPECT_EQ(d.entries[0].spec.name, "altitude");
  EXPECT_EQ(d.entries[0].spec.delta_backup, millis(80));
  EXPECT_EQ(d.entries[0].update_period, millis(25));
  EXPECT_EQ(d.entries[0].version, 9u);
  EXPECT_EQ(d.entries[0].value, (Bytes{1, 2, 3}));
  ASSERT_EQ(d.constraints.size(), 1u);
  EXPECT_EQ(d.constraints[0].delta, millis(30));
}

TEST(Wire, EmptyStateTransferRoundTrip) {
  StateTransfer st;
  st.transfer_id = 7;
  const auto decoded = decode(encode(st));
  const auto* d = decoded_as<StateTransfer>(decoded);
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->entries.empty());
  EXPECT_TRUE(d->constraints.empty());
}

TEST(Wire, StateTransferAckRoundTrip) {
  const auto decoded = decode(encode(StateTransferAck{88}));
  const auto* d = decoded_as<StateTransferAck>(decoded);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->transfer_id, 88u);
}

TEST(Wire, EmptyBufferRejected) { EXPECT_FALSE(decode({}).has_value()); }

TEST(Wire, UnknownTypeRejected) {
  Bytes junk{0xEE, 1, 2, 3};
  EXPECT_FALSE(decode(junk).has_value());
}

TEST(Wire, RetiredTag13Rejected) {
  // Tag 13 once carried a cross-group frame; it is retired and must not
  // decode.  This is that frame's old layout (shard, stable_ts, epoch).
  ByteWriter w;
  w.u8(13);
  w.u32(2);
  w.timepoint(TimePoint{5'000'000});
  w.u64(1);
  EXPECT_FALSE(decode(std::move(w).take()).has_value());
  // The tags on either side stay live at their values.
  EXPECT_EQ(static_cast<int>(MsgType::kConstraintRestore), 12);
  EXPECT_EQ(static_cast<int>(MsgType::kResyncRequest), 14);
  EXPECT_EQ(static_cast<int>(MsgType::kStateDelta), 15);
}

TEST(Wire, TruncatedUpdateRejected) {
  Bytes full = encode(Update{1, 2, TimePoint{3}, false, Bytes{4, 5}});
  for (std::size_t cut = 1; cut < full.size(); ++cut) {
    Bytes truncated(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode(truncated).has_value()) << "cut=" << cut;
  }
}

TEST(Wire, TrailingGarbageRejected) {
  Bytes msg = encode(Ping{1});
  msg.push_back(0x00);
  EXPECT_FALSE(decode(msg).has_value());
}

TEST(Wire, MsgTypeNames) {
  EXPECT_STREQ(msg_type_name(MsgType::kUpdate), "UPDATE");
  EXPECT_STREQ(msg_type_name(MsgType::kStateTransfer), "STATE_TRANSFER");
  EXPECT_STREQ(msg_type_name(MsgType::kUpdateBatch), "UPDATE_BATCH");
}

// ---------------------------------------------------------------------------
// kUpdateBatch
// ---------------------------------------------------------------------------

UpdateBatch sample_batch() {
  UpdateBatch b;
  b.entries.push_back(UpdateBatchEntry{10, 3, TimePoint{1000}, Bytes{1, 2, 3}});
  b.entries.push_back(UpdateBatchEntry{11, 7, TimePoint{2000}, Bytes{}});
  b.entries.push_back(UpdateBatchEntry{12, 1, TimePoint{3000}, Bytes(64, 0xAB)});
  b.epoch = 5;
  return b;
}

TEST(Wire, UpdateBatchRoundTrip) {
  const UpdateBatch b = sample_batch();
  const auto decoded = decode(encode(b));
  ASSERT_NE(decoded_as<UpdateBatch>(decoded), nullptr);
  const UpdateBatch& d = *decoded_as<UpdateBatch>(decoded);
  EXPECT_EQ(d.epoch, 5u);
  ASSERT_EQ(d.entries.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(d.entries[i].object, b.entries[i].object) << i;
    EXPECT_EQ(d.entries[i].version, b.entries[i].version) << i;
    EXPECT_EQ(d.entries[i].timestamp, b.entries[i].timestamp) << i;
    EXPECT_EQ(d.entries[i].value, b.entries[i].value) << i;
  }
}

TEST(Wire, EmptyUpdateBatchRoundTrip) {
  UpdateBatch b;
  b.epoch = 9;
  const auto decoded = decode(encode(b));
  const auto* d = decoded_as<UpdateBatch>(decoded);
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->entries.empty());
  EXPECT_EQ(d->epoch, 9u);
}

TEST(Wire, TruncatedUpdateBatchRejected) {
  const Bytes full = encode(sample_batch());
  for (std::size_t cut = 1; cut < full.size(); ++cut) {
    Bytes truncated(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode(truncated).has_value()) << "cut=" << cut;
  }
}

TEST(Wire, UpdateBatchCountMismatchRejected) {
  // Inflate the entry count past the entries actually present: the decoder
  // must notice the list is short, not read the epoch field as an entry.
  Bytes frame = encode(sample_batch());
  // count is big-endian u32 at offset 1.  4 entries still fit the minimum
  // entry-size pre-check, so the decoder walks into the epoch field and
  // must fail the entry parse, not misattribute it.
  frame[4] = 4;
  EXPECT_FALSE(decode(frame).has_value());
  // An absurd count must be rejected up front, before any allocation.
  frame[1] = frame[2] = frame[3] = frame[4] = 0xFF;
  EXPECT_FALSE(decode(frame).has_value());
}

TEST(Wire, UpdateBatchUndercountRejected) {
  // Shrink the count: the leftover entries become trailing bytes.
  Bytes frame = encode(sample_batch());
  frame[4] = 1;
  EXPECT_FALSE(decode(frame).has_value());
}

TEST(Wire, UpdateBatchTrailingBytesRejected) {
  Bytes frame = encode(sample_batch());
  frame.push_back(0x00);
  EXPECT_FALSE(decode(frame).has_value());
}

// ---------------------------------------------------------------------------
// encoded_size() is the exact wire size (the one-allocation reserve).
// ---------------------------------------------------------------------------

TEST(Wire, EncodedSizeMatchesWireSize) {
  Update u{17, 42, TimePoint{7}, false, Bytes(33, 1), 3};
  EXPECT_EQ(encode(u).size(), encoded_size(u));

  EXPECT_EQ(encode(sample_batch()).size(), encoded_size(sample_batch()));

  StateTransfer st;
  st.transfer_id = 2;
  StateEntry e;
  e.spec.id = 4;
  e.spec.name = "altitude";
  e.value = Bytes(17, 9);
  st.entries.push_back(e);
  st.constraints.push_back(InterObjectConstraint{4, 5, millis(30)});
  EXPECT_EQ(encode(st).size(), encoded_size(st));

  ActivePrepare ap{1, 2, TimePoint{3}, Bytes(5, 4)};
  EXPECT_EQ(encode(ap).size(), encoded_size(ap));
}

// ---------------------------------------------------------------------------
// epoch_of() on every message type.
// ---------------------------------------------------------------------------

template <std::size_t... I>
void expect_default_payload_epochs_zero(std::index_sequence<I...>) {
  (
      [] {
        const AnyMessage m{std::in_place_index<I>};
        EXPECT_EQ(epoch_of(m), 0u) << "type=" << msg_type_name(type_of(m));
      }(),
      ...);
}

TEST(Wire, EpochOfEmptyOptionalsIsZero) {
  // A message whose payload was never filled in (every field defaulted)
  // yields the bootstrap wildcard 0, whichever type it holds.
  expect_default_payload_epochs_zero(std::make_index_sequence<std::variant_size_v<AnyMessage>>{});
  EXPECT_EQ(epoch_of(AnyMessage{}), 0u);
}

TEST(Wire, EpochOfDecodedMessages) {
  auto epoch_after_roundtrip = [](const auto& m) {
    const auto d = decode(encode(m));
    if (!d) {
      ADD_FAILURE() << msg_type_name(m.kType) << " did not decode";
      return ~std::uint64_t{0};
    }
    EXPECT_EQ(type_of(*d), m.kType);
    return epoch_of(*d);
  };
  EXPECT_EQ(epoch_after_roundtrip(Update{1, 2, TimePoint{3}, false, {}, 77}), 77u);
  EXPECT_EQ(epoch_after_roundtrip(sample_batch()), 5u);
  EXPECT_EQ(epoch_after_roundtrip(UpdateAck{1, 2, 21}), 21u);
  EXPECT_EQ(epoch_after_roundtrip(RetransmitRequest{1, 2, 22}), 22u);
  EXPECT_EQ(epoch_after_roundtrip(Ping{1, 8}), 8u);
  EXPECT_EQ(epoch_after_roundtrip(PingAck{1, 9}), 9u);
  StateTransfer st;
  st.epoch = 23;
  EXPECT_EQ(epoch_after_roundtrip(st), 23u);
  EXPECT_EQ(epoch_after_roundtrip(StateTransferAck{4, 24}), 24u);
  ConstraintDowngrade down;
  down.epoch = 25;
  EXPECT_EQ(epoch_after_roundtrip(down), 25u);
  ConstraintRestore restore;
  restore.epoch = 26;
  EXPECT_EQ(epoch_after_roundtrip(restore), 26u);
  StateDelta sd;
  sd.epoch = 27;
  EXPECT_EQ(epoch_after_roundtrip(sd), 27u);
  // A resync request is the epoch-0 wildcard whatever it carries: the
  // rejoiner's recovered epoch may predate a failover it slept through.
  ResyncRequest rq;
  rq.epoch = 28;
  EXPECT_EQ(epoch_after_roundtrip(rq), 0u);
  // The active-replication baseline carries no epoch at all.
  EXPECT_EQ(epoch_after_roundtrip(ActivePrepare{1, 2, TimePoint{3}, {}}), 0u);
  EXPECT_EQ(epoch_after_roundtrip(ActiveAck{4}), 0u);
}

}  // namespace
}  // namespace rtpb::core::wire
