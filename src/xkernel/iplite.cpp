#include "xkernel/iplite.hpp"

#include "util/bytebuffer.hpp"
#include "util/log.hpp"

namespace rtpb::xkernel {

namespace {
void render_push(const telemetry::Hub&, const telemetry::Event& e, telemetry::Part,
                 std::string& out) {
  telemetry::append(out, "proto ", e.a, " node", e.b, "->node", e.c);
}
void render_proto(const telemetry::Hub&, const telemetry::Event& e, telemetry::Part,
                  std::string& out) {
  telemetry::append(out, "proto ", e.a);
}
void render_unknown_proto(const telemetry::Hub&, const telemetry::Event& e, telemetry::Part,
                          std::string& out) {
  telemetry::append(out, "unknown proto ", e.a);
}
}  // namespace

void IpLite::register_upper(std::uint8_t proto, Protocol* up) {
  RTPB_EXPECTS(up != nullptr);
  uppers_[proto] = up;
}

void IpLite::push_as(std::uint8_t proto, Message& msg, const MsgAttrs& attrs) {
  RTPB_EXPECTS(down() != nullptr);
  if (telemetry::Hub* hub = tele()) {
    hub->registry().counter(tele_.pushes, "xkernel.iplite.pushes").add();
    tele_record(*hub, tele_.push, "ip-push", &render_push, proto, attrs.src.node,
                attrs.dst.node);
  }
  HeaderWriter<kHeaderSize> w;
  w.u32(attrs.src.node);
  w.u32(attrs.dst.node);
  w.u8(proto);
  w.u32(static_cast<std::uint32_t>(msg.size()));
  msg.push(w.data());
  down()->push(msg, attrs);
}

void IpLite::push(Message& msg, const MsgAttrs& attrs) {
  // Default pushes go out as UDP — the stack the paper used.
  push_as(kProtoUdp, msg, attrs);
}

void IpLite::demux(Message& msg, MsgAttrs& attrs) {
  if (msg.size() < kHeaderSize) {
    ++bad_headers_;
    RTPB_WARN("iplite", "runt packet (%zu bytes); dropped", msg.size());
    if (telemetry::Hub* hub = tele()) {
      hub->registry().counter(tele_.bad_headers, "xkernel.iplite.bad_headers").add();
      tele_record(*hub, tele_.drop, "ip-drop", &telemetry::render_literal,
                  telemetry::literal("runt"));
    }
    return;
  }
  ByteReader r(msg.pop(kHeaderSize));
  const std::uint32_t src = r.u32();
  const std::uint32_t dst = r.u32();
  const std::uint8_t proto = r.u8();
  const std::uint32_t length = r.u32();
  if (!r.ok() || length != msg.size()) {
    ++bad_headers_;
    RTPB_WARN("iplite", "bad header (len %u vs %zu); dropped", length, msg.size());
    if (telemetry::Hub* hub = tele()) {
      hub->registry().counter(tele_.bad_headers, "xkernel.iplite.bad_headers").add();
      tele_record(*hub, tele_.drop, "ip-drop", &telemetry::render_literal,
                  telemetry::literal("bad header"));
    }
    return;
  }
  attrs.src.node = src;
  attrs.dst.node = dst;
  auto it = uppers_.find(proto);
  if (it == uppers_.end()) {
    ++unknown_proto_;
    RTPB_WARN("iplite", "no upper for proto %u; dropped", proto);
    if (telemetry::Hub* hub = tele()) {
      hub->registry().counter(tele_.unknown_proto, "xkernel.iplite.unknown_proto").add();
      tele_record(*hub, tele_.drop, "ip-drop", &render_unknown_proto, proto);
    }
    return;
  }
  if (telemetry::Hub* hub = tele()) {
    hub->registry().counter(tele_.demuxes, "xkernel.iplite.demuxes").add();
    tele_record(*hub, tele_.demux, "ip-demux", &render_proto, proto);
  }
  it->second->demux(msg, attrs);
}

}  // namespace rtpb::xkernel
