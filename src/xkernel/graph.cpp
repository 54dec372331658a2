#include "xkernel/graph.hpp"

namespace rtpb::xkernel {

HostStack::HostStack(net::Network& network)
    : eth_(std::make_unique<SimEth>(network)),
      ip_(std::make_unique<IpLite>()),
      udp_(std::make_unique<UdpLite>()) {
  ip_->connect_down(*eth_);
  eth_->set_up(ip_.get());
  udp_->connect_down(*ip_);
  ip_->register_upper(IpLite::kProtoUdp, udp_.get());

  telemetry::Hub& hub = network.simulator().telemetry();
  eth_->set_telemetry(&hub, node());
  ip_->set_telemetry(&hub, node());
  udp_->set_telemetry(&hub, node());
}

void HostStack::send_datagram(net::Port local_port, net::Endpoint remote, Bytes payload) {
  send_message(local_port, remote, Message{std::move(payload)});
}

void HostStack::send_message(net::Port local_port, net::Endpoint remote, Message msg) {
  MsgAttrs attrs;
  attrs.src = {node(), local_port};
  attrs.dst = remote;
  udp_->push(msg, attrs);
}

}  // namespace rtpb::xkernel
