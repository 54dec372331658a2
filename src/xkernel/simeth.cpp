#include "xkernel/simeth.hpp"

#include "util/log.hpp"

namespace rtpb::xkernel {

namespace {
void render_push(const telemetry::Hub&, const telemetry::Event& e, telemetry::Part,
                 std::string& out) {
  telemetry::append(out, e.a, "B to node", e.b);
}
void render_demux(const telemetry::Hub&, const telemetry::Event& e, telemetry::Part,
                  std::string& out) {
  telemetry::append(out, e.a, "B from node", e.b);
}
}  // namespace

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
  if (telemetry::Hub* hub = tele()) {
    hub->registry().counter(tele_.frames_sent, "xkernel.simeth.frames_sent").add();
    tele_record(*hub, tele_.push, "eth-push", &render_push, msg.size(), attrs.dst.node);
  }
  network_.send(node_, attrs.dst.node, msg.frame());
}

void SimEth::demux(Message& msg, MsgAttrs& attrs) {
  if (up_ == nullptr) {
    RTPB_WARN("simeth", "frame with no upper protocol configured; dropped");
    if (telemetry::Hub* hub = tele()) {
      hub->registry().counter(tele_.no_upper, "xkernel.simeth.no_upper").add();
      tele_record(*hub, tele_.drop, "eth-drop", &telemetry::render_literal,
                  telemetry::literal("no upper protocol"));
    }
    return;
  }
  if (telemetry::Hub* hub = tele()) {
    hub->registry().counter(tele_.frames_received, "xkernel.simeth.frames_received").add();
    tele_record(*hub, tele_.demux, "eth-demux", &render_demux, msg.size(), attrs.src.node);
  }
  up_->demux(msg, attrs);
}

}  // namespace rtpb::xkernel
