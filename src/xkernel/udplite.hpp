// UDPLITE: unreliable datagram transport with ports and a checksum — the
// transport the RTPB anchor protocol rides on (paper §4.1: "the underlying
// transport protocol is UDP", with explicit acknowledgment left to the
// layers above).
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "xkernel/iplite.hpp"
#include "xkernel/protocol.hpp"

namespace rtpb::xkernel {

class UdpLite final : public Protocol {
 public:
  UdpLite() : Protocol("udplite") {}

  using Handler = std::function<void(Message&, const MsgAttrs&)>;

  /// Passive open: deliver datagrams addressed to `port` to `handler`.
  void bind(net::Port port, Handler handler);
  void unbind(net::Port port);

  /// Send `msg` from attrs.src.port to attrs.dst (node + port).
  void push(Message& msg, const MsgAttrs& attrs) override;
  void demux(Message& msg, MsgAttrs& attrs) override;

  /// xOpen: an outgoing channel to `remote` from `local`.  The session
  /// caches everything except the per-message length and checksum.
  [[nodiscard]] std::unique_ptr<Session> open(net::Endpoint local, net::Endpoint remote);

  /// Datagrams dropped as runts or for a length or checksum mismatch.
  [[nodiscard]] std::uint64_t checksum_failures() const {
    return count(LayerFact::kUdpChecksum);
  }
  [[nodiscard]] std::uint64_t no_listener() const { return count(LayerFact::kUdpNoListener); }

  /// Header: src port (u16), dst port (u16), length (u16), checksum (u16).
  static constexpr std::size_t kHeaderSize = 8;

  /// Internet-style ones'-complement sum over the datagram body.
  [[nodiscard]] static std::uint16_t checksum(std::span<const std::uint8_t> data);
  /// Same sum over the concatenation of two segments — lets the push path
  /// checksum a message's (header, shared body) pair without gathering it
  /// into a contiguous copy first.
  [[nodiscard]] static std::uint16_t checksum(std::span<const std::uint8_t> a,
                                              std::span<const std::uint8_t> b);

 private:
  std::map<net::Port, Handler> bindings_;
};

}  // namespace rtpb::xkernel
