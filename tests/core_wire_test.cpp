#include "core/wire.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

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

  const Bytes frame = encode(u);
  const auto decoded = decode(frame);
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
  ByteWriter w(1 + 4 + 8 + 8);
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
  const Bytes frame = encode(b);
  const auto decoded = decode(frame);
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
// Byte pins: one sample of every message type.
// ---------------------------------------------------------------------------

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

Bytes encode_any(const AnyMessage& m) {
  return std::visit([](const auto& msg) { return encode(msg); }, m);
}

StateEntry sample_state_entry() {
  return StateEntry{ObjectSpec{4, "alt", 16, millis(10), millis(1), micros(500), millis(20),
                               millis(80)},
                    millis(25), 9, TimePoint{555}, Bytes{1, 2, 3}};
}

/// One populated sample of every AnyMessage alternative, in variant order.
std::vector<AnyMessage> every_message() {
  return {
      Update{17, 42, TimePoint{7}, true, Bytes{9, 8}, 3},
      UpdateBatch{{UpdateBatchEntry{10, 3, TimePoint{1000}, Bytes{1, 2, 3}},
                   UpdateBatchEntry{11, 7, TimePoint{2000}, Bytes{}}},
                  5},
      UpdateAck{5, 99, 2},
      RetransmitRequest{3, 41, 2},
      Ping{77, 4},
      PingAck{78, 4},
      StateTransfer{1001, {sample_state_entry()}, {InterObjectConstraint{4, 5, millis(30)}}, 6},
      StateTransferAck{1001, 6},
      ConstraintDowngrade{4, millis(20), millis(140), millis(50), 2, 7},
      ConstraintRestore{4, millis(80), millis(25), 3, 7},
      ResyncRequest{{ResyncEntry{4, 9, 1}, ResyncEntry{5, 0, 0}}, 8},
      StateDelta{1002, {sample_state_entry()}, {}, 9},
      ActivePrepare{12, 4, TimePoint{-1}, Bytes{0xFF}},
      ActiveAck{12},
  };
}

TEST(Wire, EveryMessageEncodesToPinnedBytes) {
  // The wire format, byte for byte: a codec change must leave every pin
  // as it is.  Each frame must also decode and re-encode to itself.
  const char* const kPinned[] = {
      "0100000011000000000000002a0000000000000007010000000209080000000000000003",
      "0a000000020000000a000000000000000300000000000003e8000000030102030000000b000000000000000700"
      "000000000007d0000000000000000000000005",
      "020000000500000000000000630000000000000002",
      "030000000300000000000000290000000000000002",
      "04000000000000004d0000000000000004",
      "05000000000000004e0000000000000004",
      "0600000000000003e9000000010000000400000003616c7400000010000000000098968000000000000f424000"
      "0000000007a1200000000001312d000000000004c4b40000000000017d78400000000000000009000000000000"
      "022b000000030102030000000100000004000000050000000001c9c3800000000000000006",
      "0700000000000003e90000000000000006",
      "0b000000040000000001312d000000000008583b000000000002faf08000000000000000020000000000000007",
      "0c000000040000000004c4b40000000000017d784000000000000000030000000000000007",
      "0e0000000200000004000000000000000900000000000000010000000500000000000000000000000000000000"
      "0000000000000008",
      "0f00000000000003ea000000010000000400000003616c7400000010000000000098968000000000000f424000"
      "0000000007a1200000000001312d000000000004c4b40000000000017d78400000000000000009000000000000"
      "022b00000003010203000000000000000000000009",
      "08000000000000000c00000004ffffffffffffffff00000001ff",
      "09000000000000000c",
  };
  const std::vector<AnyMessage> messages = every_message();
  ASSERT_EQ(messages.size(), std::variant_size_v<AnyMessage>);
  ASSERT_EQ(std::size(kPinned), messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    ASSERT_EQ(messages[i].index(), i) << "samples must follow the variant order";
    const Bytes bytes = encode_any(messages[i]);
    EXPECT_EQ(hex(bytes), kPinned[i]) << msg_type_name(type_of(messages[i]));
    const auto decoded = decode(bytes);
    ASSERT_TRUE(decoded.has_value()) << msg_type_name(type_of(messages[i]));
    EXPECT_EQ(type_of(*decoded), type_of(messages[i]));
    EXPECT_EQ(encode_any(*decoded), bytes) << msg_type_name(type_of(messages[i]));
  }
}

// ---------------------------------------------------------------------------
// Update values: borrowed from the frame on decode, owned when built from
// a Bytes.
// ---------------------------------------------------------------------------

bool inside(std::span<const std::uint8_t> part, const Bytes& whole) {
  const std::less_equal<const std::uint8_t*> le;
  return !part.empty() && le(whole.data(), part.data()) &&
         le(part.data() + part.size(), whole.data() + whole.size());
}

TEST(Wire, DecodedUpdateValuesPointIntoTheFrame) {
  const Bytes single = encode(Update{1, 2, TimePoint{3}, false, Bytes{4, 5, 6}, 7});
  const auto u = decode(single);
  ASSERT_NE(decoded_as<Update>(u), nullptr);
  EXPECT_TRUE(inside(decoded_as<Update>(u)->value.bytes(), single));
  EXPECT_EQ(decoded_as<Update>(u)->value, Payload(Bytes{4, 5, 6}));

  const Bytes batch = encode(sample_batch());
  const auto b = decode(batch);
  ASSERT_NE(decoded_as<UpdateBatch>(b), nullptr);
  const codec::Sequence<UpdateBatchEntry>& entries = decoded_as<UpdateBatch>(b)->entries;
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_TRUE(inside(entries[0].value.bytes(), batch));
  EXPECT_TRUE(entries[1].value.bytes().empty());
  EXPECT_TRUE(inside(entries[2].value.bytes(), batch));
}

/// A batch shaped like the wire probe's: each value built from a Bytes
/// temporary that is gone by the time the batch is returned.
UpdateBatch batch_from_temporaries() {
  UpdateBatch batch;
  batch.epoch = 3;
  for (std::size_t i = 0; i < 2; ++i) {
    batch.entries.push_back(UpdateBatchEntry{
        static_cast<ObjectId>(i + 1), 1000 + i,
        TimePoint::zero() + micros(static_cast<std::int64_t>(i)),
        Bytes(3, static_cast<std::uint8_t>(i))});
  }
  return batch;
}

TEST(Wire, EntryBuiltFromATemporaryOwnsItsValue) {
  const UpdateBatch batch = batch_from_temporaries();
  // Reuse the freed heap: a value that had borrowed its temporary would
  // now read these bytes (and fail under ASan).
  std::vector<Bytes> churn;
  for (int i = 0; i < 8; ++i) churn.emplace_back(3, 0xEE);
  EXPECT_EQ(hex(encode(batch)),
            "0a00000002"
            "00000001" "00000000000003e8" "0000000000000000" "00000003" "000000"
            "00000002" "00000000000003e9" "00000000000003e8" "00000003" "010101"
            "0000000000000003");
}

TEST(Wire, ValueLongerThanTheRestOfTheFrameRejected) {
  // The value's u32 length sits right after the fixed fields; claim one
  // byte more than the frame holds after it.
  Bytes single = encode(Update{1, 2, TimePoint{3}, false, Bytes{4, 5}, 7});
  constexpr std::size_t kUpdateLenAt = 1 + 4 + 8 + 8 + 1;
  store_be(single.data() + kUpdateLenAt,
           static_cast<std::uint32_t>(single.size() - kUpdateLenAt - 4 + 1));
  EXPECT_FALSE(decode(single).has_value());

  Bytes batch = encode(UpdateBatch{{UpdateBatchEntry{1, 2, TimePoint{3}, Bytes{4, 5}}}, 7});
  constexpr std::size_t kEntryLenAt = 1 + 4 + 4 + 8 + 8;
  store_be(batch.data() + kEntryLenAt,
           static_cast<std::uint32_t>(batch.size() - kEntryLenAt - 4 + 1));
  EXPECT_FALSE(decode(batch).has_value());
}

// ---------------------------------------------------------------------------
// encoded_size() is the exact wire size (the one-allocation reserve).
// ---------------------------------------------------------------------------

TEST(Wire, EncodedSizeMatchesWireSize) {
  std::vector<AnyMessage> messages = every_message();
  messages.push_back(sample_batch());  // larger values than the pinned sample
  messages.push_back(StateTransfer{});
  for (const AnyMessage& m : messages) {
    std::visit(
        [](const auto& msg) {
          EXPECT_EQ(encode(msg).size(), encoded_size(msg)) << msg_type_name(msg.kType);
        },
        m);
  }
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
