// SIMETH: the bottom anchor of every host's protocol graph.  It adapts the
// uniform protocol interface to the simulated link fabric — the role the
// real x-kernel's ethernet driver protocol played on the 10 Mb/s LAN of
// the paper's testbed.
#pragma once

#include "net/network.hpp"
#include "xkernel/protocol.hpp"

namespace rtpb::xkernel {

class SimEth final : public Protocol {
 public:
  /// Registers a host with the fabric; delivered frames are demuxed to the
  /// protocol configured above via set_up().
  explicit SimEth(net::Network& network);

  [[nodiscard]] net::NodeId node() const { return node_; }

  void set_up(Protocol* up) { up_ = up; }

  void push(Message& msg, const MsgAttrs& attrs) override;
  void demux(Message& msg, MsgAttrs& attrs) override;

  [[nodiscard]] std::uint64_t frames_sent() const { return count(LayerFact::kEthSend); }
  /// Frames handed to the upper protocol (what the
  /// `xkernel.simeth.frames_received` counter counts); a frame with no
  /// upper protocol is a `xkernel.simeth.no_upper` drop instead.
  [[nodiscard]] std::uint64_t frames_received() const { return count(LayerFact::kEthReceive); }

 private:
  net::Network& network_;
  net::NodeId node_ = net::kInvalidNode;
  Protocol* up_ = nullptr;
};

}  // namespace rtpb::xkernel
