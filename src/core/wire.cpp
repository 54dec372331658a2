#include "core/wire.hpp"

#include <type_traits>

namespace rtpb::core::wire {

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kUpdate: return "UPDATE";
    case MsgType::kUpdateAck: return "UPDATE_ACK";
    case MsgType::kRetransmitRequest: return "RETRANSMIT_REQ";
    case MsgType::kPing: return "PING";
    case MsgType::kPingAck: return "PING_ACK";
    case MsgType::kStateTransfer: return "STATE_TRANSFER";
    case MsgType::kStateTransferAck: return "STATE_TRANSFER_ACK";
    case MsgType::kActivePrepare: return "ACTIVE_PREPARE";
    case MsgType::kActiveAck: return "ACTIVE_ACK";
    case MsgType::kUpdateBatch: return "UPDATE_BATCH";
    case MsgType::kConstraintDowngrade: return "CONSTRAINT_DOWNGRADE";
    case MsgType::kConstraintRestore: return "CONSTRAINT_RESTORE";
    case MsgType::kResyncRequest: return "RESYNC_REQUEST";
    case MsgType::kStateDelta: return "STATE_DELTA";
  }
  return "?";
}

namespace {

// Field-size building blocks for the exact-reserve computations.
constexpr std::size_t kTag = 1;
constexpr std::size_t kU8 = 1;
constexpr std::size_t kU32 = 4;
constexpr std::size_t kU64 = 8;
constexpr std::size_t kLenPrefix = 4;  ///< u32 length prefix of bytes()/string()

std::size_t encoded_size(const ObjectSpec& s) {
  // id + name (prefixed) + size_bytes + 5 durations.
  return kU32 + (kLenPrefix + s.name.size()) + kU32 + 5 * kU64;
}

std::size_t encoded_size(const StateEntry& e) {
  return encoded_size(e.spec) + kU64 /*period*/ + kU64 /*version*/ + kU64 /*timestamp*/ +
         (kLenPrefix + e.value.size());
}

void encode_spec(ByteWriter& w, const ObjectSpec& s) {
  w.u32(s.id);
  w.string(s.name);
  w.u32(s.size_bytes);
  w.duration(s.client_period);
  w.duration(s.client_exec);
  w.duration(s.update_exec);
  w.duration(s.delta_primary);
  w.duration(s.delta_backup);
}

ObjectSpec decode_spec(ByteReader& r) {
  ObjectSpec s;
  s.id = r.u32();
  s.name = r.string();
  s.size_bytes = r.u32();
  s.client_period = r.duration();
  s.client_exec = r.duration();
  s.update_exec = r.duration();
  s.delta_primary = r.duration();
  s.delta_backup = r.duration();
  return s;
}

// kStateTransfer and kStateDelta share one layout and differ only in tag.

template <class M>
std::size_t transfer_size(const M& m) {
  std::size_t total = kTag + kU64 /*transfer id*/ + kU32 /*entry count*/ +
                      kU32 /*constraint count*/ + kU64 /*epoch*/;
  for (const auto& e : m.entries) total += encoded_size(e);
  total += m.constraints.size() * (kU32 + kU32 + kU64);
  return total;
}

template <class M>
Bytes encode_transfer(const M& m) {
  ByteWriter w(transfer_size(m));
  w.u8(static_cast<std::uint8_t>(m.kType));
  w.u64(m.transfer_id);
  w.u32(static_cast<std::uint32_t>(m.entries.size()));
  for (const auto& e : m.entries) {
    encode_spec(w, e.spec);
    w.duration(e.update_period);
    w.u64(e.version);
    w.timepoint(e.timestamp);
    w.bytes(e.value);
  }
  w.u32(static_cast<std::uint32_t>(m.constraints.size()));
  for (const auto& c : m.constraints) {
    w.u32(c.first);
    w.u32(c.second);
    w.duration(c.delta);
  }
  w.u64(m.epoch);
  return std::move(w).take();
}

/// Body of a transfer-shaped frame (the tag already consumed); nullopt on
/// any malformation, including forged entry or constraint counts.
template <class M>
std::optional<AnyMessage> decode_transfer(ByteReader& r) {
  M m;
  m.transfer_id = r.u64();
  const std::uint32_t n = r.u32();
  // Every entry carries at least a minimal spec (52 bytes) plus
  // period/version/timestamp and an empty value prefix.
  constexpr std::size_t kMinEntry = (kU32 + kLenPrefix + kU32 + 5 * kU64) + 3 * kU64 +
                                    kLenPrefix;
  if (!r.ok() || static_cast<std::size_t>(n) * kMinEntry > r.remaining()) {
    return std::nullopt;
  }
  m.entries.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    StateEntry e;
    e.spec = decode_spec(r);
    e.update_period = r.duration();
    e.version = r.u64();
    e.timestamp = r.timepoint();
    e.value = r.bytes();
    m.entries.push_back(std::move(e));
  }
  const std::uint32_t nc = r.u32();
  constexpr std::size_t kMinConstraint = kU32 + kU32 + kU64;
  if (!r.ok() || static_cast<std::size_t>(nc) * kMinConstraint > r.remaining()) {
    return std::nullopt;
  }
  for (std::uint32_t i = 0; i < nc && r.ok(); ++i) {
    InterObjectConstraint c;
    c.first = r.u32();
    c.second = r.u32();
    c.delta = r.duration();
    m.constraints.push_back(c);
  }
  m.epoch = r.u64();
  if (!r.ok() || !r.at_end() || m.entries.size() != n) return std::nullopt;
  return m;
}

}  // namespace

std::size_t encoded_size(const Update& m) {
  return kTag + kU32 /*object*/ + kU64 /*version*/ + kU64 /*timestamp*/ + kU8 /*retx*/ +
         (kLenPrefix + m.value.size()) + kU64 /*epoch*/;
}

std::size_t encoded_size(const UpdateBatch& m) {
  std::size_t total = kTag + kU32 /*entry count*/ + kU64 /*epoch*/;
  for (const auto& e : m.entries) {
    total += kU32 /*object*/ + kU64 /*version*/ + kU64 /*timestamp*/ +
             (kLenPrefix + e.value.size());
  }
  return total;
}

std::size_t encoded_size(const StateTransfer& m) { return transfer_size(m); }
std::size_t encoded_size(const StateDelta& m) { return transfer_size(m); }

std::size_t encoded_size(const ActivePrepare& m) {
  return kTag + kU64 /*sequence*/ + kU32 /*object*/ + kU64 /*timestamp*/ +
         (kLenPrefix + m.value.size());
}

Bytes encode(const Update& m) {
  ByteWriter w(encoded_size(m));
  w.u8(static_cast<std::uint8_t>(m.kType));
  w.u32(m.object);
  w.u64(m.version);
  w.timepoint(m.timestamp);
  w.u8(m.retransmission ? 1 : 0);
  w.bytes(m.value);
  w.u64(m.epoch);
  return std::move(w).take();
}

Bytes encode(const UpdateBatch& m) {
  ByteWriter w(encoded_size(m));
  w.u8(static_cast<std::uint8_t>(m.kType));
  w.u32(static_cast<std::uint32_t>(m.entries.size()));
  for (const auto& e : m.entries) {
    w.u32(e.object);
    w.u64(e.version);
    w.timepoint(e.timestamp);
    w.bytes(e.value);
  }
  w.u64(m.epoch);
  return std::move(w).take();
}

Bytes encode(const UpdateAck& m) {
  ByteWriter w(kTag + kU32 + kU64 + kU64);
  w.u8(static_cast<std::uint8_t>(m.kType));
  w.u32(m.object);
  w.u64(m.version);
  w.u64(m.epoch);
  return std::move(w).take();
}

Bytes encode(const RetransmitRequest& m) {
  ByteWriter w(kTag + kU32 + kU64 + kU64);
  w.u8(static_cast<std::uint8_t>(m.kType));
  w.u32(m.object);
  w.u64(m.have_version);
  w.u64(m.epoch);
  return std::move(w).take();
}

Bytes encode(const Ping& m) {
  ByteWriter w(kTag + kU64 + kU64);
  w.u8(static_cast<std::uint8_t>(m.kType));
  w.u64(m.seq);
  w.u64(m.epoch);
  return std::move(w).take();
}

Bytes encode(const PingAck& m) {
  ByteWriter w(kTag + kU64 + kU64);
  w.u8(static_cast<std::uint8_t>(m.kType));
  w.u64(m.seq);
  w.u64(m.epoch);
  return std::move(w).take();
}

Bytes encode(const StateTransfer& m) { return encode_transfer(m); }

Bytes encode(const StateTransferAck& m) {
  ByteWriter w(kTag + kU64 + kU64);
  w.u8(static_cast<std::uint8_t>(m.kType));
  w.u64(m.transfer_id);
  w.u64(m.epoch);
  return std::move(w).take();
}

Bytes encode(const ConstraintDowngrade& m) {
  ByteWriter w(kTag + kU32 + 3 * kU64 /*durations*/ + kU64 /*qos_seq*/ + kU64 /*epoch*/);
  w.u8(static_cast<std::uint8_t>(m.kType));
  w.u32(m.object);
  w.duration(m.delta_primary);
  w.duration(m.delta_backup);
  w.duration(m.update_period);
  w.u64(m.qos_seq);
  w.u64(m.epoch);
  return std::move(w).take();
}

Bytes encode(const ConstraintRestore& m) {
  ByteWriter w(kTag + kU32 + 2 * kU64 /*durations*/ + kU64 /*qos_seq*/ + kU64 /*epoch*/);
  w.u8(static_cast<std::uint8_t>(m.kType));
  w.u32(m.object);
  w.duration(m.delta_backup);
  w.duration(m.update_period);
  w.u64(m.qos_seq);
  w.u64(m.epoch);
  return std::move(w).take();
}

Bytes encode(const ResyncRequest& m) {
  ByteWriter w(kTag + kU32 + m.have.size() * (kU32 + kU64 + kU64) + kU64 /*epoch*/);
  w.u8(static_cast<std::uint8_t>(m.kType));
  w.u32(static_cast<std::uint32_t>(m.have.size()));
  for (const auto& e : m.have) {
    w.u32(e.object);
    w.u64(e.version);
    w.u64(e.qos_seq);
  }
  w.u64(m.epoch);
  return std::move(w).take();
}

Bytes encode(const StateDelta& m) { return encode_transfer(m); }

Bytes encode(const ActivePrepare& m) {
  ByteWriter w(encoded_size(m));
  w.u8(static_cast<std::uint8_t>(m.kType));
  w.u64(m.sequence);
  w.u32(m.object);
  w.timepoint(m.timestamp);
  w.bytes(m.value);
  return std::move(w).take();
}

Bytes encode(const ActiveAck& m) {
  ByteWriter w(kTag + kU64);
  w.u8(static_cast<std::uint8_t>(m.kType));
  w.u64(m.sequence);
  return std::move(w).take();
}

std::optional<AnyMessage> decode(std::span<const std::uint8_t> data) {
  if (data.empty()) return std::nullopt;
  ByteReader r(data);
  switch (static_cast<MsgType>(r.u8())) {
    case MsgType::kUpdate: {
      Update m;
      m.object = r.u32();
      m.version = r.u64();
      m.timestamp = r.timepoint();
      m.retransmission = r.u8() != 0;
      m.value = r.bytes();
      m.epoch = r.u64();
      if (!r.ok() || !r.at_end()) return std::nullopt;
      return m;
    }
    case MsgType::kUpdateBatch: {
      UpdateBatch m;
      const std::uint32_t n = r.u32();
      // Every entry takes at least 24 bytes (object + version + timestamp
      // + empty value prefix); a count that cannot fit the remaining
      // buffer is malformed — reject before reserving anything.
      constexpr std::size_t kMinEntry = kU32 + kU64 + kU64 + kLenPrefix;
      if (!r.ok() || static_cast<std::size_t>(n) * kMinEntry > r.remaining()) {
        return std::nullopt;
      }
      m.entries.reserve(n);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        UpdateBatchEntry e;
        e.object = r.u32();
        e.version = r.u64();
        e.timestamp = r.timepoint();
        e.value = r.bytes();
        m.entries.push_back(std::move(e));
      }
      m.epoch = r.u64();
      // A truncated entry list, an entry count that disagrees with the
      // payload, or trailing bytes all fail here.
      if (!r.ok() || !r.at_end() || m.entries.size() != n) return std::nullopt;
      return m;
    }
    case MsgType::kUpdateAck: {
      UpdateAck m;
      m.object = r.u32();
      m.version = r.u64();
      m.epoch = r.u64();
      if (!r.ok() || !r.at_end()) return std::nullopt;
      return m;
    }
    case MsgType::kRetransmitRequest: {
      RetransmitRequest m;
      m.object = r.u32();
      m.have_version = r.u64();
      m.epoch = r.u64();
      if (!r.ok() || !r.at_end()) return std::nullopt;
      return m;
    }
    case MsgType::kPing: {
      Ping m;
      m.seq = r.u64();
      m.epoch = r.u64();
      if (!r.ok() || !r.at_end()) return std::nullopt;
      return m;
    }
    case MsgType::kPingAck: {
      PingAck m;
      m.seq = r.u64();
      m.epoch = r.u64();
      if (!r.ok() || !r.at_end()) return std::nullopt;
      return m;
    }
    case MsgType::kStateTransfer:
      return decode_transfer<StateTransfer>(r);
    case MsgType::kStateTransferAck: {
      StateTransferAck m;
      m.transfer_id = r.u64();
      m.epoch = r.u64();
      if (!r.ok() || !r.at_end()) return std::nullopt;
      return m;
    }
    case MsgType::kConstraintDowngrade: {
      ConstraintDowngrade m;
      m.object = r.u32();
      m.delta_primary = r.duration();
      m.delta_backup = r.duration();
      m.update_period = r.duration();
      m.qos_seq = r.u64();
      m.epoch = r.u64();
      if (!r.ok() || !r.at_end()) return std::nullopt;
      return m;
    }
    case MsgType::kConstraintRestore: {
      ConstraintRestore m;
      m.object = r.u32();
      m.delta_backup = r.duration();
      m.update_period = r.duration();
      m.qos_seq = r.u64();
      m.epoch = r.u64();
      if (!r.ok() || !r.at_end()) return std::nullopt;
      return m;
    }
    case MsgType::kResyncRequest: {
      ResyncRequest m;
      const std::uint32_t n = r.u32();
      // 20 bytes per (object, version, qos_seq) triple; reject forged
      // counts before the reserve.
      constexpr std::size_t kMinEntry = kU32 + kU64 + kU64;
      if (!r.ok() || static_cast<std::size_t>(n) * kMinEntry > r.remaining()) {
        return std::nullopt;
      }
      m.have.reserve(n);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        ResyncEntry e;
        e.object = r.u32();
        e.version = r.u64();
        e.qos_seq = r.u64();
        m.have.push_back(e);
      }
      m.epoch = r.u64();
      if (!r.ok() || !r.at_end() || m.have.size() != n) return std::nullopt;
      return m;
    }
    case MsgType::kStateDelta:
      return decode_transfer<StateDelta>(r);
    case MsgType::kActivePrepare: {
      ActivePrepare m;
      m.sequence = r.u64();
      m.object = r.u32();
      m.timestamp = r.timepoint();
      m.value = r.bytes();
      if (!r.ok() || !r.at_end()) return std::nullopt;
      return m;
    }
    case MsgType::kActiveAck: {
      ActiveAck m;
      m.sequence = r.u64();
      if (!r.ok() || !r.at_end()) return std::nullopt;
      return m;
    }
  }
  return std::nullopt;
}

MsgType type_of(const AnyMessage& m) {
  return std::visit([](const auto& msg) { return msg.kType; }, m);
}

std::uint64_t epoch_of(const AnyMessage& m) {
  return std::visit(
      [](const auto& msg) -> std::uint64_t {
        using M = std::decay_t<decltype(msg)>;
        // Always the bootstrap wildcard: a rejoiner's recovered epoch may
        // predate a failover it slept through (see the struct comment).
        if constexpr (std::is_same_v<M, ResyncRequest>) return 0;
        else if constexpr (requires { msg.epoch; }) return msg.epoch;
        else return 0;  // the active-replication baseline carries none
      },
      m);
}

}  // namespace rtpb::core::wire
