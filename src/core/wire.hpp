// RTPB anchor-protocol wire format.
//
// The RTPB protocol sits above UDPLITE (paper Figure 5) and is therefore
// responsible for its own loss handling: updates carry object sequence
// numbers so the backup can detect gaps and request retransmission
// (paper §4.3 — no per-update acknowledgments by default).
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "core/types.hpp"
#include "util/bytebuffer.hpp"
#include "util/codec.hpp"
#include "util/frame.hpp"
#include "util/time.hpp"

namespace rtpb::core::wire {

enum class MsgType : std::uint8_t {
  kUpdate = 1,           ///< primary → backup: object value + timestamp
  kUpdateAck = 2,        ///< backup → primary (ack mode only)
  kRetransmitRequest = 3,///< backup → primary: gap detected
  kPing = 4,             ///< either direction: heartbeat
  kPingAck = 5,
  kStateTransfer = 6,    ///< primary → recruited backup: full object table
  kStateTransferAck = 7,
  // Active-replication baseline (§6.1 comparison):
  kActivePrepare = 8,    ///< leader → replicas: sequenced write
  kActiveAck = 9,        ///< replica → leader: write applied
  kUpdateBatch = 10,     ///< primary → backup: coalesced object updates
  // Runtime QoS renegotiation (graceful degradation under overload):
  kConstraintDowngrade = 11,  ///< primary → backups/client: loosened window
  kConstraintRestore = 12,    ///< primary → backups/client: original window back
  // 13 is retired: it must not decode, and must not be reused.
  // Durable crash recovery: incremental rejoin of a restarted peer.
  kResyncRequest = 14,        ///< rejoining backup → primary: durable version vector
  kStateDelta = 15,           ///< primary → rejoining backup: dirty objects only
};

[[nodiscard]] const char* msg_type_name(MsgType t);

// Every RTPB message carries the sender's replication epoch (incarnation
// number, minted at promote()).  Receivers fence: traffic from a lower
// epoch is stale — it comes from a deposed primary or a not-yet-repointed
// backup — and must be rejected, not applied.  Epoch 0 means "unknown"
// (bootstrap: a freshly recruited standby that has not yet learned the
// cluster epoch) and is never fenced.  The field sits last in each struct
// so aggregate initializers written before epochs existed stay valid.
//
// Each message struct names its own tag (kType): encode() writes it and
// logging reads it, so a decoded message carries no separate type field.

struct Update {
  static constexpr MsgType kType = MsgType::kUpdate;
  ObjectId object = kInvalidObject;
  std::uint64_t version = 0;      ///< per-object sequence number
  TimePoint timestamp{};          ///< T_i^P: finish time of the client update
  bool retransmission = false;
  Payload value;  ///< decoded: borrowed from the frame (see UpdateBatch)
  std::uint64_t epoch = 0;
  template <class S> static auto tie(S& s) {
    return std::tie(s.object, s.version, s.timestamp, s.retransmission, s.value, s.epoch);
  }
};

struct UpdateAck {
  static constexpr MsgType kType = MsgType::kUpdateAck;
  ObjectId object = kInvalidObject;
  std::uint64_t version = 0;
  std::uint64_t epoch = 0;
  template <class S> static auto tie(S& s) { return std::tie(s.object, s.version, s.epoch); }
};

struct RetransmitRequest {
  static constexpr MsgType kType = MsgType::kRetransmitRequest;
  ObjectId object = kInvalidObject;
  std::uint64_t have_version = 0;  ///< newest version the backup holds
  std::uint64_t epoch = 0;
  template <class S> static auto tie(S& s) { return std::tie(s.object, s.have_version, s.epoch); }
};

/// One object's update inside a kUpdateBatch frame.  Batched entries are
/// never retransmissions (retransmissions go out as targeted kUpdate
/// singles), so the per-update retransmission flag is omitted.
struct UpdateBatchEntry {
  ObjectId object = kInvalidObject;
  std::uint64_t version = 0;
  TimePoint timestamp{};
  Payload value;
  template <class S> static auto tie(S& s) {
    return std::tie(s.object, s.version, s.timestamp, s.value);
  }
};

/// All object updates due in the same transmission window, coalesced into
/// one frame per peer: the 1-byte tag, UDPLITE checksum, per-frame sim
/// event and epoch field are paid once per frame instead of once per
/// object.  The receiver applies entries strictly in order.
///
/// Update values are a Payload: the sender borrows them from its store
/// for the length of one encode, and decode() borrows them from the frame,
/// so each value is copied once per hop, from frame to store.  The entries
/// are a codec::Sequence: decode() checks them all but copies none out,
/// and iterating decodes each from the frame in turn.  A decoded Update or
/// UpdateBatch is therefore valid only while its frame is, and nothing may
/// keep one past the handler that decoded it.
struct UpdateBatch {
  static constexpr MsgType kType = MsgType::kUpdateBatch;
  codec::Sequence<UpdateBatchEntry> entries;
  std::uint64_t epoch = 0;
  template <class S> static auto tie(S& s) { return std::tie(s.entries, s.epoch); }
};

struct Ping {
  static constexpr MsgType kType = MsgType::kPing;
  std::uint64_t seq = 0;
  std::uint64_t epoch = 0;
  template <class S> static auto tie(S& s) { return std::tie(s.seq, s.epoch); }
};

struct PingAck {
  static constexpr MsgType kType = MsgType::kPingAck;
  std::uint64_t seq = 0;
  std::uint64_t epoch = 0;
  template <class S> static auto tie(S& s) { return std::tie(s.seq, s.epoch); }
};

/// One object's entry in a state transfer (spec + current state).  Carries
/// the primary's assigned transmission period r_i so the backup can size
/// its retransmission watchdog.
struct StateEntry {
  ObjectSpec spec;
  Duration update_period{};
  std::uint64_t version = 0;
  TimePoint timestamp{};
  Bytes value;
  template <class S> static auto tie(S& s) {
    return std::tie(s.spec, s.update_period, s.version, s.timestamp, s.value);
  }
};

struct StateTransfer {
  static constexpr MsgType kType = MsgType::kStateTransfer;
  std::uint64_t transfer_id = 0;
  std::vector<StateEntry> entries;
  std::vector<InterObjectConstraint> constraints;
  std::uint64_t epoch = 0;
  template <class S> static auto tie(S& s) {
    return std::tie(s.transfer_id, s.entries, s.constraints, s.epoch);
  }
};

struct StateTransferAck {
  static constexpr MsgType kType = MsgType::kStateTransferAck;
  std::uint64_t transfer_id = 0;
  std::uint64_t epoch = 0;
  template <class S> static auto tie(S& s) { return std::tie(s.transfer_id, s.epoch); }
};

/// Runtime QoS renegotiation: the primary loosened an admitted object's
/// temporal constraint (δ_iB, and with it the window and the transmission
/// period r_i) because overload would otherwise violate the original
/// window silently.  Sent to every backup (and surfaced to the client)
/// *before* the first out-of-original-window distance — the no-silent-
/// violation oracle holds the service to exactly that.  `qos_seq` is a
/// per-object monotone renegotiation counter: downgrades and restores can
/// reorder on a lossy link, so receivers apply only seq-newer changes.
struct ConstraintDowngrade {
  static constexpr MsgType kType = MsgType::kConstraintDowngrade;
  ObjectId object = kInvalidObject;
  Duration delta_primary{};   ///< unchanged δ_iP, echoed for the client
  Duration delta_backup{};    ///< loosened δ_iB
  Duration update_period{};   ///< new transmission period r_i
  std::uint64_t qos_seq = 0;
  std::uint64_t epoch = 0;
  template <class S> static auto tie(S& s) {
    return std::tie(s.object, s.delta_primary, s.delta_backup, s.update_period, s.qos_seq, s.epoch);
  }
};

/// The overload cleared (with hysteresis): the original constraint is
/// re-admitted and replicas tighten back.
struct ConstraintRestore {
  static constexpr MsgType kType = MsgType::kConstraintRestore;
  ObjectId object = kInvalidObject;
  Duration delta_backup{};    ///< original δ_iB, restored
  Duration update_period{};   ///< restored transmission period r_i
  std::uint64_t qos_seq = 0;
  std::uint64_t epoch = 0;
  template <class S> static auto tie(S& s) {
    return std::tie(s.object, s.delta_backup, s.update_period, s.qos_seq, s.epoch);
  }
};

/// One (object, version, qos_seq) triple of a rejoining replica's
/// durable version vector.  `qos_seq` is the newest QoS renegotiation
/// sequence the rejoiner has applied for the object (0 if none — QoS
/// state is deliberately not durable, so a restarted replica always
/// reports 0): an object whose spec lags the primary's renegotiated one
/// is dirty even when its version is current.
struct ResyncEntry {
  ObjectId object = kInvalidObject;
  std::uint64_t version = 0;
  std::uint64_t qos_seq = 0;
  template <class S> static auto tie(S& s) { return std::tie(s.object, s.version, s.qos_seq); }
};

/// Durable crash recovery: a restarted replica announces the version
/// vector it recovered from its WAL and asks the primary for everything
/// newer.  Sent with the epoch-0 bootstrap wildcard — the rejoiner's
/// recovered epoch may predate a failover that happened while it was
/// down, and a fenced resync request would strand it forever.
struct ResyncRequest {
  static constexpr MsgType kType = MsgType::kResyncRequest;
  std::vector<ResyncEntry> have;
  std::uint64_t epoch = 0;
  template <class S> static auto tie(S& s) { return std::tie(s.have, s.epoch); }
};

/// The primary's answer to a ResyncRequest: only the objects whose
/// version is ahead of the rejoiner's durable vector (the dirty set),
/// plus the (small) inter-object constraint table so a later promotion
/// of the rejoined replica rebuilds admission correctly.  Falls back to a
/// full kStateTransfer when the delta would not actually save anything.
/// Shares the transfer-id sequence (and the kStateTransferAck / retry
/// machinery) with kStateTransfer, so the per-sender reorder guard
/// totally orders deltas and full transfers.
struct StateDelta {
  static constexpr MsgType kType = MsgType::kStateDelta;
  std::uint64_t transfer_id = 0;
  std::vector<StateEntry> entries;
  std::vector<InterObjectConstraint> constraints;
  std::uint64_t epoch = 0;
  template <class S> static auto tie(S& s) {
    return std::tie(s.transfer_id, s.entries, s.constraints, s.epoch);
  }
};

/// Active baseline: a write stamped with a global sequence number; every
/// replica applies writes in sequence order.
struct ActivePrepare {
  static constexpr MsgType kType = MsgType::kActivePrepare;
  std::uint64_t sequence = 0;
  ObjectId object = kInvalidObject;
  TimePoint timestamp{};
  Bytes value;
  template <class S> static auto tie(S& s) {
    return std::tie(s.sequence, s.object, s.timestamp, s.value);
  }
};

struct ActiveAck {
  static constexpr MsgType kType = MsgType::kActiveAck;
  std::uint64_t sequence = 0;
  template <class S> static auto tie(S& s) { return std::tie(s.sequence); }
};

/// One of the message structs above: a tag plus a field list.
template <class M>
concept Message = codec::Record<M> && requires {
  { M::kType } -> std::convertible_to<MsgType>;
};

/// Exact on-the-wire size of a message: the ByteWriter reserve used by
/// encode(), asserted by the allocation-counting bench.
template <Message M>
[[nodiscard]] std::size_t encoded_size(const M& m) {
  return 1 + codec::size(m);
}

/// Encoding: the 1-byte type tag, then the message's fields in tie()
/// order (util/codec.hpp), written over `out`'s contents.  The writer
/// reserves the exact frame size up front, so this allocates only when
/// `out` has never held a frame this large.
template <Message M>
void encode_into(Bytes& out, const M& m) {
  ByteWriter w(std::move(out), encoded_size(m));
  w.u8(static_cast<std::uint8_t>(M::kType));
  codec::put(w, m);
  out = std::move(w).take();
}

/// The encoding as a fresh buffer (one allocation).
template <Message M>
[[nodiscard]] Bytes encode(const M& m) {
  Bytes out;
  encode_into(out, m);
  return out;
}

/// The encoding as a frame whose body comes from `pool`: once the pool
/// holds a free body large enough, encoding allocates nothing.  The send
/// paths encode through here; the body returns to the pool when the last
/// frame sharing it is dropped.
template <Message M>
[[nodiscard]] Frame encode(BodyPool& pool, const M& m) {
  std::shared_ptr<Bytes> body = pool.acquire(encoded_size(m));
  encode_into(*body, m);
  const std::size_t length = body->size();
  return Frame{SharedView{std::move(body), 0, length}};
}

/// A decoded message: exactly one of the message structs.
using AnyMessage =
    std::variant<Update, UpdateBatch, UpdateAck, RetransmitRequest, Ping, PingAck, StateTransfer,
                 StateTransferAck, ConstraintDowngrade, ConstraintRestore, ResyncRequest,
                 StateDelta, ActivePrepare, ActiveAck>;

/// Decode one frame.  Returns nullopt on a malformed buffer or an unknown
/// tag — the caller drops it, as UDP consumers must.
[[nodiscard]] std::optional<AnyMessage> decode(std::span<const std::uint8_t> data);

/// The tag of the message `m` holds.
[[nodiscard]] MsgType type_of(const AnyMessage& m);

/// The replication epoch stamped on a decoded message, or 0 for message
/// types that do not carry one (the active-replication baseline) and for
/// a ResyncRequest, which always travels as the bootstrap wildcard.
[[nodiscard]] std::uint64_t epoch_of(const AnyMessage& m);

}  // namespace rtpb::core::wire
