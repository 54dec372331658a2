#include "xkernel/simeth.hpp"

#include "util/log.hpp"

namespace rtpb::xkernel {

SimEth::SimEth(net::Network& network) : Protocol("simeth"), network_(network) {
  node_ = network_.add_node([this](const net::Packet& pkt) {
    ++frames_received_;
    Message msg{pkt.frame};
    MsgAttrs attrs;
    attrs.src.node = pkt.src;
    attrs.dst.node = pkt.dst;
    demux(msg, attrs);
  });
}

void SimEth::push(Message& msg, const MsgAttrs& attrs) {
  RTPB_EXPECTS(attrs.dst.node != net::kInvalidNode);
  ++frames_sent_;
  if (tele_enabled()) {
    tele_hub()->registry().counter("xkernel.simeth.frames_sent").add();
    tele_record("eth-push", std::to_string(msg.size()) + "B to node" +
                                std::to_string(attrs.dst.node));
  }
  network_.send(node_, attrs.dst.node, msg.frame());
}

void SimEth::demux(Message& msg, MsgAttrs& attrs) {
  if (up_ == nullptr) {
    RTPB_WARN("simeth", "frame with no upper protocol configured; dropped");
    if (tele_enabled()) {
      tele_hub()->registry().counter("xkernel.simeth.no_upper").add();
      tele_record("eth-drop", "no upper protocol");
    }
    return;
  }
  if (tele_enabled()) {
    tele_hub()->registry().counter("xkernel.simeth.frames_received").add();
    tele_record("eth-demux", std::to_string(msg.size()) + "B from node" +
                                 std::to_string(attrs.src.node));
  }
  up_->demux(msg, attrs);
}

}  // namespace rtpb::xkernel
