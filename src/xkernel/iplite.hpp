// IPLITE: minimal host-to-host layer.  Carries source/destination node ids
// and an upper-protocol number, and demuxes upward by that number — the
// same role IP played in the paper's stack (Figure 5).
#pragma once

#include <cstdint>
#include <map>

#include "xkernel/protocol.hpp"

namespace rtpb::xkernel {

class IpLite final : public Protocol {
 public:
  IpLite() : Protocol("iplite") {}

  static constexpr std::uint8_t kProtoUdp = 17;

  /// Register the protocol that handles a given protocol number.
  void register_upper(std::uint8_t proto, Protocol* up);

  /// The protocol number used for pushes from above (set per upper via
  /// attrs-independent configuration: each upper pushes through its own
  /// bound number).
  void push_as(std::uint8_t proto, Message& msg, const MsgAttrs& attrs);

  void push(Message& msg, const MsgAttrs& attrs) override;
  void demux(Message& msg, MsgAttrs& attrs) override;

  /// Frames dropped as runts or for a length that does not match.
  [[nodiscard]] std::uint64_t bad_headers() const { return count(LayerFact::kIpBadHeader); }
  [[nodiscard]] std::uint64_t unknown_proto() const { return count(LayerFact::kIpUnknownProto); }

  /// Header: src node (u32), dst node (u32), proto (u8), length (u32).
  static constexpr std::size_t kHeaderSize = 4 + 4 + 1 + 4;

 private:
  std::map<std::uint8_t, Protocol*> uppers_;
};

}  // namespace rtpb::xkernel
