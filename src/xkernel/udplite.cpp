#include "xkernel/udplite.hpp"

#include <bit>
#include <cstring>

#include "util/bytebuffer.hpp"
#include "util/log.hpp"

namespace rtpb::xkernel {

namespace {
/// Sum of the big-endian 16-bit words of `data`, unfolded; an odd last
/// byte is the high half of a final word.  Eight bytes at a time: a
/// 64-bit big-endian load is four words, and its two 32-bit halves are
/// congruent to their word sums modulo 0xFFFF.
std::uint64_t sum_words(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t sum = 0;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap64(v);
    sum += (v >> 32) + (v & 0xFFFFFFFF);
  }
  for (; n >= 2; p += 2, n -= 2) sum += (static_cast<std::uint64_t>(p[0]) << 8) | p[1];
  if (n == 1) sum += static_cast<std::uint64_t>(p[0]) << 8;
  return sum;
}

}  // namespace

void UdpLite::bind(net::Port port, Handler handler) {
  RTPB_EXPECTS(handler != nullptr);
  RTPB_EXPECTS(!bindings_.contains(port));
  bindings_[port] = std::move(handler);
}

void UdpLite::unbind(net::Port port) { bindings_.erase(port); }

std::uint16_t UdpLite::checksum(std::span<const std::uint8_t> data) {
  return checksum(data, {});
}

std::uint16_t UdpLite::checksum(std::span<const std::uint8_t> a,
                                std::span<const std::uint8_t> b) {
  // Ones'-complement sum over the virtual concatenation a‖b, identical to
  // summing a gathered copy.  Words accumulate unfolded in 64 bits and the
  // carries fold once at the end.  An odd-length `a` ends in the high half
  // of a word whose low half is b's first byte.
  std::uint64_t sum = sum_words(a);
  if (a.size() % 2 == 1 && !b.empty()) {
    sum += b.front();
    b = b.subspan(1);
  }
  sum += sum_words(b);
  while ((sum >> 16) != 0) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xFFFF);
}

void UdpLite::push(Message& msg, const MsgAttrs& attrs) {
  RTPB_EXPECTS(down() != nullptr);
  emit(LayerFact::kUdpPush, attrs.src.port, attrs.dst.port);
  const std::uint16_t csum = checksum(msg.header_segment(), msg.body_segment());
  HeaderWriter<kHeaderSize> w;
  w.u16(attrs.src.port);
  w.u16(attrs.dst.port);
  w.u16(static_cast<std::uint16_t>(msg.size()));
  w.u16(csum);
  msg.push(w.data());
  down()->push(msg, attrs);
}

void UdpLite::demux(Message& msg, MsgAttrs& attrs) {
  if (msg.size() < kHeaderSize) {
    emit(LayerFact::kUdpRunt);
    return;
  }
  ByteReader r(msg.pop(kHeaderSize));
  const std::uint16_t src_port = r.u16();
  const std::uint16_t dst_port = r.u16();
  const std::uint16_t length = r.u16();
  const std::uint16_t csum = r.u16();
  // Sum the two segments exactly as push() did: contents() would gather
  // the remaining FRAGLITE header and the body into a fresh copy.
  if (!r.ok() || length != msg.size() ||
      checksum(msg.header_segment(), msg.body_segment()) != csum) {
    RTPB_WARN("udplite", "checksum/length failure on datagram to port %u", dst_port);
    emit(LayerFact::kUdpChecksum, dst_port);
    return;
  }
  attrs.src.port = src_port;
  attrs.dst.port = dst_port;
  auto it = bindings_.find(dst_port);
  if (it == bindings_.end()) {
    RTPB_DEBUG("udplite", "no listener on port %u; dropped", dst_port);
    emit(LayerFact::kUdpNoListener, dst_port);
    return;
  }
  emit(LayerFact::kUdpDemux, dst_port);
  it->second(msg, attrs);
}

}  // namespace rtpb::xkernel
