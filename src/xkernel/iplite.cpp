#include "xkernel/iplite.hpp"

#include "util/bytebuffer.hpp"

namespace rtpb::xkernel {

void IpLite::register_upper(std::uint8_t proto, Protocol* up) {
  RTPB_EXPECTS(up != nullptr);
  uppers_[proto] = up;
}

void IpLite::push_as(std::uint8_t proto, Message& msg, const MsgAttrs& attrs) {
  RTPB_EXPECTS(down() != nullptr);
  emit(LayerFact::kIpPush, proto, attrs.src.node, attrs.dst.node);
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
    emit(LayerFact::kIpRunt);
    return;
  }
  ByteReader r(msg.pop(kHeaderSize));
  const std::uint32_t src = r.u32();
  const std::uint32_t dst = r.u32();
  const std::uint8_t proto = r.u8();
  const std::uint32_t length = r.u32();
  if (!r.ok() || length != msg.size()) {
    emit(LayerFact::kIpBadHeader);
    return;
  }
  attrs.src.node = src;
  attrs.dst.node = dst;
  auto it = uppers_.find(proto);
  if (it == uppers_.end()) {
    emit(LayerFact::kIpUnknownProto, proto);
    return;
  }
  emit(LayerFact::kIpDemux, proto);
  it->second->demux(msg, attrs);
}

}  // namespace rtpb::xkernel
