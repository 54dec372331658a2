#include "xkernel/fraglite.hpp"

#include <algorithm>

#include "util/bytebuffer.hpp"

namespace rtpb::xkernel {

FragLite::FragLite(sim::Simulator& sim, std::size_t max_fragment_payload,
                   Duration reassembly_timeout)
    : Protocol("fraglite"),
      sim_(sim),
      max_payload_(max_fragment_payload),
      timeout_(reassembly_timeout) {
  RTPB_EXPECTS(max_payload_ > 0);
  RTPB_EXPECTS(timeout_ > Duration::zero());
}

void FragLite::push(Message& msg, const MsgAttrs& attrs) {
  RTPB_EXPECTS(down() != nullptr);
  // Fragment over the message's shared body: each fragment is an
  // offset/length view into the SAME ref-counted buffer, so a 10-fragment
  // message (or one update fanned out to N backups) costs zero payload
  // copies here — only the per-fragment headers are owned storage.
  const SharedView whole = msg.shared_contents();
  const std::uint32_t msg_id = next_msg_id_++;
  const auto total = static_cast<std::uint32_t>(whole.length);
  const std::size_t count = std::max<std::size_t>(1, (whole.length + max_payload_ - 1) / max_payload_);
  RTPB_EXPECTS(count <= 0xFFFF);

  emit(LayerFact::kFragPush, count, whole.length);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t begin = i * max_payload_;
    const std::size_t end = std::min<std::size_t>(whole.length, begin + max_payload_);
    Message fragment =
        whole.buf ? Message::from_shared(whole.buf, whole.offset + begin, end - begin)
                  : Message{};
    HeaderWriter<kHeaderSize> header;
    header.u32(msg_id);
    header.u16(static_cast<std::uint16_t>(i));
    header.u16(static_cast<std::uint16_t>(count));
    header.u32(total);
    fragment.push(header.data());
    emit(LayerFact::kFragment);
    down()->push(fragment, attrs);
  }
}

void FragLite::demux(Message& msg, MsgAttrs& attrs) {
  if (msg.size() < kHeaderSize) {
    emit(LayerFact::kFragBad);
    return;
  }
  ByteReader r(msg.pop(kHeaderSize));
  const std::uint32_t msg_id = r.u32();
  const std::uint16_t index = r.u16();
  const std::uint16_t count = r.u16();
  const std::uint32_t total = r.u32();
  // Header sanity: a fragment index outside [0, count) or a total length
  // no fragment split could produce (each fragment's payload rides in a
  // UDPLITE datagram whose length field is 16 bits) is corruption — it
  // must never size or index the fragment table.
  if (!r.ok() || count == 0 || index >= count ||
      total > static_cast<std::uint64_t>(count) * kMaxFragmentSize) {
    emit(LayerFact::kFragBad);
    return;
  }

  // Fast path: unfragmented message.
  if (count == 1) {
    if (msg.size() != total) {
      emit(LayerFact::kFragBad);
      return;
    }
    emit(LayerFact::kFragWhole);
    if (handler_) handler_(msg, attrs);
    return;
  }

  const Key key{attrs.src.node, attrs.src.port, msg_id};
  Reassembly& re = reassembly_[key];
  if (re.fragments.empty()) {
    re.fragments.resize(count);
    re.total_length = total;
    re.gc = sim_.schedule_after(timeout_, [this, key] { expire(key); });
  }
  if (re.fragments.size() != count || re.total_length != total) {
    // Conflicting fragment metadata for the same id: drop everything.
    emit(LayerFact::kFragBad);
    re.gc.cancel();
    reassembly_.erase(key);
    return;
  }
  if (re.fragments[index].buf != nullptr) {
    // Replayed or duplicated fragment: the slot is taken; it must neither
    // overwrite the stored payload nor count toward completion again.
    emit(LayerFact::kFragDuplicate);
    return;
  }
  const SharedView payload = msg.shared_contents();
  if (re.bytes_received + payload.length > re.total_length) {
    // An over-long (corrupted) fragment would push the reassembled size
    // past the declared total; reject the fragment, keep the reassembly.
    emit(LayerFact::kFragBad);
    return;
  }
  // Store a zero-copy view of the arriving wire buffer; bytes are gathered
  // exactly once, at completion.  An empty fragment still takes its slot
  // (shared empty buffer) so `buf != nullptr` doubles as the presence bit.
  re.fragments[index] =
      payload.buf ? payload : SharedView{std::make_shared<const Bytes>(), 0, 0};
  re.bytes_received += payload.length;
  ++re.received;
  if (re.received < count) return;

  // Complete: stitch and deliver.
  if (re.bytes_received != re.total_length) {
    emit(LayerFact::kFragBad);
    re.gc.cancel();
    reassembly_.erase(key);
    return;
  }
  Bytes whole;
  whole.reserve(re.bytes_received);
  for (const auto& frag : re.fragments) {
    const auto s = frag.span();
    whole.insert(whole.end(), s.begin(), s.end());
  }
  re.gc.cancel();
  reassembly_.erase(key);
  emit(LayerFact::kFragReassembled, count);
  Message complete{std::move(whole)};
  if (handler_) handler_(complete, attrs);
}

void FragLite::expire(const Key& key) {
  auto it = reassembly_.find(key);
  if (it == reassembly_.end()) return;
  emit(LayerFact::kFragTimeout, it->second.received, it->second.fragments.size());
  reassembly_.erase(it);
}

}  // namespace rtpb::xkernel
