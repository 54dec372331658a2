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

  [[nodiscard]] std::uint64_t bad_headers() const { return bad_headers_; }
  [[nodiscard]] std::uint64_t unknown_proto() const { return unknown_proto_; }

  /// Header: src node (u32), dst node (u32), proto (u8), length (u32).
  static constexpr std::size_t kHeaderSize = 4 + 4 + 1 + 4;

 private:
  std::map<std::uint8_t, Protocol*> uppers_;
  std::uint64_t bad_headers_ = 0;
  std::uint64_t unknown_proto_ = 0;
  struct Tele {  ///< resolved on first use while the hub collects
    telemetry::Counter* pushes = nullptr;
    telemetry::Counter* demuxes = nullptr;
    telemetry::Counter* bad_headers = nullptr;
    telemetry::Counter* unknown_proto = nullptr;
    telemetry::TextId push = 0;
    telemetry::TextId demux = 0;
    telemetry::TextId drop = 0;
  } tele_;
};

}  // namespace rtpb::xkernel
