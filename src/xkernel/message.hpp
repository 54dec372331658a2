// x-kernel style message object.
//
// Protocols prepend their header on the way down (push) and strip it on
// the way up (pop).  A message is a util Frame:
//
//   [ header region (inline, owned) | body (shared, immutable) ]
//
// Copying a Message — the primary fanning one encoded update out to N
// backups, FRAGLITE slicing a large message into fragments — shares the
// body instead of deep-copying the payload.  Headers are per-message:
// pushes write into the frame's inline header region and never touch the
// shared body, so a push allocates nothing.  Pops consume the header
// region first, then advance the body view in place.  SIMETH hands the
// frame itself to the network, and delivery rebuilds a Message over it.
#pragma once

#include <cstdint>
#include <span>

#include "util/assert.hpp"
#include "util/bytebuffer.hpp"
#include "util/frame.hpp"

namespace rtpb::xkernel {

class Message {
 public:
  Message() = default;

  /// Build a message around an application payload.  The payload is taken
  /// by value and MOVED into the shared body — no copy.
  explicit Message(Bytes payload) : frame_(std::move(payload)) {}

  /// Rebuild a message over a frame off the wire.  The body is shared, not
  /// copied.
  explicit Message(Frame frame) : frame_(std::move(frame)) {}

  /// Zero-copy: view `length` bytes of `body` starting at `offset`.  The
  /// buffer is shared, never copied — the encode-once fan-out and the
  /// fragmentation path build all their messages through here.
  static Message from_shared(SharedBytes body, std::size_t offset, std::size_t length) {
    RTPB_EXPECTS(body != nullptr);
    RTPB_EXPECTS(offset + length <= body->size());
    return Message{Frame{SharedView{std::move(body), offset, length}}};
  }

  /// Prepend a header.  It goes into the inline header region; a header
  /// that no longer fits there (never on the protocol stack's paths) is
  /// gathered with the rest of the message into a fresh body instead.
  void push(std::span<const std::uint8_t> header) {
    if (header.size() <= frame_.headroom()) {
      frame_.push_header(header);
      return;
    }
    Bytes flat(header.begin(), header.end());
    const Bytes rest = frame_.to_bytes();
    flat.insert(flat.end(), rest.begin(), rest.end());
    frame_ = Frame{std::move(flat)};
  }

  /// Strip `n` bytes from the front, returning them.  The returned span is
  /// valid until the next mutation of this message.
  [[nodiscard]] std::span<const std::uint8_t> pop(std::size_t n) {
    RTPB_EXPECTS(n <= size());
    const std::size_t in_hdr = frame_.header().size();
    if (in_hdr == 0) return frame_.pop_body(n);
    if (n <= in_hdr) return frame_.pop_header(n);
    // Straddles the header/body seam (never on the normal protocol paths,
    // where pops mirror earlier pushes): linearise, then pop.
    linearize();
    return pop(n);
  }

  /// Current contents (front header through end of payload) as one
  /// contiguous span.  Linearises first if headers and body are both
  /// present; freshly-built payloads and fully popped messages are always
  /// contiguous already.
  [[nodiscard]] std::span<const std::uint8_t> contents() {
    if (frame_.header().empty()) return frame_.body();
    if (frame_.body().empty()) return frame_.header();
    linearize();
    return frame_.body();
  }

  /// The two storage segments (header, body) without linearising — for
  /// consumers that can gather, e.g. the UDPLITE checksum.
  [[nodiscard]] std::span<const std::uint8_t> header_segment() const { return frame_.header(); }
  [[nodiscard]] std::span<const std::uint8_t> body_segment() const { return frame_.body(); }

  /// The full contents as a shared immutable view.  Zero-copy when no
  /// headers are present (the fragmentation and delivery fast paths);
  /// otherwise the message is linearised into a fresh shared buffer first.
  [[nodiscard]] SharedView shared_contents() {
    if (!frame_.header().empty()) linearize();
    return frame_.body_view();
  }

  /// The message as a wire frame (header bytes plus the shared body).
  [[nodiscard]] const Frame& frame() const { return frame_; }

  [[nodiscard]] std::size_t size() const { return frame_.size(); }
  [[nodiscard]] bool empty() const { return frame_.empty(); }

  /// Copy out the remaining bytes (typically the application payload after
  /// all headers are stripped).
  [[nodiscard]] Bytes to_bytes() const { return frame_.to_bytes(); }

 private:
  /// Collapse header region + body view into a fresh shared body.
  void linearize() { frame_ = Frame{frame_.to_bytes()}; }

  Frame frame_;
};

}  // namespace rtpb::xkernel
