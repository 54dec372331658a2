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

/// Decode the body of the AnyMessage alternative tagged `tag`, searching
/// from alternative I on.  An unknown or retired tag matches none.
template <std::size_t I = 0>
std::optional<AnyMessage> decode_body(MsgType tag, ByteReader& r) {
  if constexpr (I == std::variant_size_v<AnyMessage>) {
    return std::nullopt;
  } else {
    if (tag != std::variant_alternative_t<I, AnyMessage>::kType) {
      return decode_body<I + 1>(tag, r);
    }
    std::optional<AnyMessage> out{std::in_place, std::in_place_index<I>};
    codec::get(r, std::get<I>(*out));
    // A short body, a count that disagrees with the payload, or trailing
    // bytes all fail here.
    if (!r.ok() || !r.at_end()) out.reset();
    return out;
  }
}

}  // namespace

std::optional<AnyMessage> decode(std::span<const std::uint8_t> data) {
  if (data.empty()) return std::nullopt;
  ByteReader r(data);
  const auto tag = static_cast<MsgType>(r.u8());
  return decode_body(tag, r);
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
