// RTPB anchor-protocol wire format.
//
// The RTPB protocol sits above UDPLITE (paper Figure 5) and is therefore
// responsible for its own loss handling: updates carry object sequence
// numbers so the backup can detect gaps and request retransmission
// (paper §4.3 — no per-update acknowledgments by default).
#pragma once

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "core/types.hpp"
#include "util/bytebuffer.hpp"
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
  Bytes value;
  std::uint64_t epoch = 0;
};

struct UpdateAck {
  static constexpr MsgType kType = MsgType::kUpdateAck;
  ObjectId object = kInvalidObject;
  std::uint64_t version = 0;
  std::uint64_t epoch = 0;
};

struct RetransmitRequest {
  static constexpr MsgType kType = MsgType::kRetransmitRequest;
  ObjectId object = kInvalidObject;
  std::uint64_t have_version = 0;  ///< newest version the backup holds
  std::uint64_t epoch = 0;
};

/// One object's update inside a kUpdateBatch frame.  Batched entries are
/// never retransmissions (retransmissions go out as targeted kUpdate
/// singles), so the per-update retransmission flag is omitted.
struct UpdateBatchEntry {
  ObjectId object = kInvalidObject;
  std::uint64_t version = 0;
  TimePoint timestamp{};
  Bytes value;
};

/// All object updates due in the same transmission window, coalesced into
/// one frame per peer: the 1-byte tag, UDPLITE checksum, per-frame sim
/// event and epoch field are paid once per frame instead of once per
/// object.  The receiver applies entries strictly in order.
struct UpdateBatch {
  static constexpr MsgType kType = MsgType::kUpdateBatch;
  std::vector<UpdateBatchEntry> entries;
  std::uint64_t epoch = 0;
};

struct Ping {
  static constexpr MsgType kType = MsgType::kPing;
  std::uint64_t seq = 0;
  std::uint64_t epoch = 0;
};

struct PingAck {
  static constexpr MsgType kType = MsgType::kPingAck;
  std::uint64_t seq = 0;
  std::uint64_t epoch = 0;
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
};

struct StateTransfer {
  static constexpr MsgType kType = MsgType::kStateTransfer;
  std::uint64_t transfer_id = 0;
  std::vector<StateEntry> entries;
  std::vector<InterObjectConstraint> constraints;
  std::uint64_t epoch = 0;
};

struct StateTransferAck {
  static constexpr MsgType kType = MsgType::kStateTransferAck;
  std::uint64_t transfer_id = 0;
  std::uint64_t epoch = 0;
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
};

/// Active baseline: a write stamped with a global sequence number; every
/// replica applies writes in sequence order.
struct ActivePrepare {
  static constexpr MsgType kType = MsgType::kActivePrepare;
  std::uint64_t sequence = 0;
  ObjectId object = kInvalidObject;
  TimePoint timestamp{};
  Bytes value;
};

struct ActiveAck {
  static constexpr MsgType kType = MsgType::kActiveAck;
  std::uint64_t sequence = 0;
};

// Encoding: 1-byte type tag followed by the body.  Every encoder reserves
// the exact frame size up front (see encoded_size overloads), so encoding
// a frame costs exactly one allocation.
[[nodiscard]] Bytes encode(const Update& m);
[[nodiscard]] Bytes encode(const UpdateBatch& m);
[[nodiscard]] Bytes encode(const UpdateAck& m);
[[nodiscard]] Bytes encode(const RetransmitRequest& m);
[[nodiscard]] Bytes encode(const Ping& m);
[[nodiscard]] Bytes encode(const PingAck& m);
[[nodiscard]] Bytes encode(const StateTransfer& m);
[[nodiscard]] Bytes encode(const StateTransferAck& m);
[[nodiscard]] Bytes encode(const ConstraintDowngrade& m);
[[nodiscard]] Bytes encode(const ConstraintRestore& m);
[[nodiscard]] Bytes encode(const ResyncRequest& m);
[[nodiscard]] Bytes encode(const StateDelta& m);
[[nodiscard]] Bytes encode(const ActivePrepare& m);
[[nodiscard]] Bytes encode(const ActiveAck& m);

/// Exact on-the-wire size of each message — the ByteWriter reserve used by
/// the corresponding encode(), asserted by the allocation-counting bench.
[[nodiscard]] std::size_t encoded_size(const Update& m);
[[nodiscard]] std::size_t encoded_size(const UpdateBatch& m);
[[nodiscard]] std::size_t encoded_size(const StateTransfer& m);
[[nodiscard]] std::size_t encoded_size(const StateDelta& m);
[[nodiscard]] std::size_t encoded_size(const ActivePrepare& m);

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
