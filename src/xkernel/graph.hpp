// Protocol graph composition — the analogue of x-kernel's graph.comp.
//
// A HostStack instantiates and wires one host's protocol graph
// (SIMETH ← IPLITE ← UDPLITE, the paper's stack) over the shared link
// fabric.  Higher-level anchor protocols (RTPB) bind to UDPLITE ports on
// top.
#pragma once

#include <memory>

#include "net/network.hpp"
#include "xkernel/iplite.hpp"
#include "xkernel/simeth.hpp"
#include "xkernel/udplite.hpp"

namespace rtpb::xkernel {

/// One host's configured protocol stack.
class HostStack {
 public:
  /// Build the stack on `network`.
  explicit HostStack(net::Network& network);

  [[nodiscard]] net::NodeId node() const { return eth_->node(); }
  [[nodiscard]] SimEth& eth() { return *eth_; }
  [[nodiscard]] IpLite& ip() { return *ip_; }
  [[nodiscard]] UdpLite& udp() { return *udp_; }
  [[nodiscard]] const SimEth& eth() const { return *eth_; }
  [[nodiscard]] const UdpLite& udp() const { return *udp_; }

  /// Convenience: send an application payload to a remote endpoint from a
  /// local port.
  void send_datagram(net::Port local_port, net::Endpoint remote, Bytes payload);
  /// Same, for a pre-built message.  Taken by value: callers fanning one
  /// encoded payload out to N peers pass copies that share the body
  /// buffer, so only per-peer headers are materialised.
  void send_message(net::Port local_port, net::Endpoint remote, Message msg);

 private:
  std::unique_ptr<SimEth> eth_;
  std::unique_ptr<IpLite> ip_;
  std::unique_ptr<UdpLite> udp_;
};

}  // namespace rtpb::xkernel
