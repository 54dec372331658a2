#include "xkernel/simeth.hpp"

namespace rtpb::xkernel {

SimEth::SimEth(net::Network& network) : Protocol("simeth"), network_(network) {
  node_ = network_.add_node([this](const net::Packet& pkt) {
    Message msg{pkt.frame};
    MsgAttrs attrs;
    attrs.src.node = pkt.src;
    attrs.dst.node = pkt.dst;
    demux(msg, attrs);
  });
}

void SimEth::push(Message& msg, const MsgAttrs& attrs) {
  RTPB_EXPECTS(attrs.dst.node != net::kInvalidNode);
  emit(LayerFact::kEthSend, msg.size(), attrs.dst.node);
  network_.send(node_, attrs.dst.node, msg.frame());
}

void SimEth::demux(Message& msg, MsgAttrs& attrs) {
  if (up_ == nullptr) {
    emit(LayerFact::kEthNoUpper);
    return;
  }
  emit(LayerFact::kEthReceive, msg.size(), attrs.src.node);
  up_->demux(msg, attrs);
}

}  // namespace rtpb::xkernel
