// A frame on the simulated wire, and the shared body view it is built on.
//
//   [ headroom | header bytes (inline, owned) | body (shared, immutable) ]
//
// The body is a ref-counted immutable buffer plus an offset/length view,
// so one encoded update fanned out to N backups, or sliced into fragments,
// is one allocation however many frames carry it.  Each frame owns its
// header bytes in a small inline array filled back to front, so pushing a
// protocol header, handing the frame to the network and rebuilding a
// message over it on delivery copy at most kHeaderCapacity bytes and one
// reference count — never the body.  A BodyPool recycles the bodies of the
// frames a sender encodes, so a steady stream of them allocates nothing.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/bytebuffer.hpp"

namespace rtpb {

using SharedBytes = std::shared_ptr<const Bytes>;

/// A view into a shared immutable buffer: the zero-copy currency of the
/// wire path (fan-out, fragmentation, delivery).
struct SharedView {
  SharedBytes buf;
  std::size_t offset = 0;
  std::size_t length = 0;

  [[nodiscard]] std::span<const std::uint8_t> span() const {
    return buf ? std::span<const std::uint8_t>{buf->data() + offset, length}
               : std::span<const std::uint8_t>{};
  }
};

/// Recycled frame bodies.  acquire(size) hands out an empty body with room
/// for `size` bytes that no frame shares any more, for an encoder to fill
/// and then share read-only.  The pool keeps one reference to each body
/// it made, so a body is free exactly when that reference is the last
/// one: it goes back to the pool when the last frame sharing it is
/// dropped, and never sooner.
///
/// The pool starts empty and grows on demand to kMaxBodies; past that
/// (more bodies in flight at once), acquire() makes a body the pool does
/// not keep.  It prefers a free body that already has room; a free body
/// that is too small grows to a power of two (at least kMinCapacity), so
/// a body grows a few times at most and a steady stream of frames
/// allocates nothing.  A body that grew past kMaxKeptCapacity (a large
/// state transfer) gives its buffer back when a smaller frame reuses it.
/// A body outlives the pool safely.  Not thread-safe: one pool belongs to
/// one simulator's event loop.
class BodyPool {
 public:
  static constexpr std::size_t kMaxBodies = 64;
  static constexpr std::size_t kMinCapacity = 256;
  static constexpr std::size_t kMaxKeptCapacity = 64 * 1024;

  [[nodiscard]] std::shared_ptr<Bytes> acquire(std::size_t size) {
    // Round robin from the last hand-out: bodies tend to be dropped in
    // the order they were sent, so the next one is usually free.
    std::shared_ptr<Bytes>* too_small = nullptr;
    for (std::size_t n = bodies_.size(); n > 0; --n) {
      if (++next_ == bodies_.size()) next_ = 0;
      std::shared_ptr<Bytes>& body = bodies_[next_];
      if (body.use_count() != 1) continue;
      if (body->capacity() >= size) return prepared(body, size);
      if (too_small == nullptr) too_small = &body;
    }
    if (too_small != nullptr) return prepared(*too_small, size);
    auto fresh = std::make_shared<Bytes>();
    if (bodies_.size() < kMaxBodies) {
      if (bodies_.empty()) bodies_.reserve(kMaxBodies);
      next_ = bodies_.size();
      bodies_.push_back(fresh);
    }
    return prepared(fresh, size);
  }

  /// Bodies the pool keeps, free or in use.
  [[nodiscard]] std::size_t size() const { return bodies_.size(); }

 private:
  /// `body` emptied, with room for `size` bytes.
  static std::shared_ptr<Bytes> prepared(const std::shared_ptr<Bytes>& body, std::size_t size) {
    if (body->capacity() > kMaxKeptCapacity && size <= kMaxKeptCapacity) Bytes{}.swap(*body);
    body->clear();
    if (body->capacity() < size) body->reserve(std::bit_ceil(std::max(size, kMinCapacity)));
    return body;
  }

  std::vector<std::shared_ptr<Bytes>> bodies_;
  std::size_t next_ = 0;  ///< index of the body handed out last
};

class Frame {
 public:
  /// Inline header room: the FRAGLITE, UDPLITE and IPLITE headers take 33
  /// bytes together.
  static constexpr std::size_t kHeaderCapacity = 40;
  static_assert(kHeaderCapacity <= UINT8_MAX);

  Frame() = default;
  /// A flat byte string is a frame with no header: the bytes are moved
  /// into a shared body, not copied.  Implicit, so Network::send accepts
  /// a plain Bytes payload.
  Frame(Bytes bytes)  // NOLINT(google-explicit-constructor)
      : body_{std::make_shared<const Bytes>(std::move(bytes)), 0, 0} {
    body_.length = body_.buf->size();
  }
  explicit Frame(SharedView body) : body_(std::move(body)) {}

  [[nodiscard]] std::span<const std::uint8_t> header() const {
    return {hdr_.data() + head_, header_size()};
  }
  [[nodiscard]] std::span<const std::uint8_t> body() const { return body_.span(); }
  [[nodiscard]] const SharedView& body_view() const { return body_; }
  [[nodiscard]] std::size_t size() const { return header_size() + body_.length; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Byte `i` of the frame, counting the header first.
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const {
    RTPB_EXPECTS(i < size());
    return i < header_size() ? header()[i] : body()[i - header_size()];
  }

  /// The whole frame as one flat copy.
  [[nodiscard]] Bytes to_bytes() const {
    Bytes out;
    out.reserve(size());
    const auto h = header();
    out.insert(out.end(), h.begin(), h.end());
    const auto b = body();
    out.insert(out.end(), b.begin(), b.end());
    return out;
  }

  /// Free header bytes in front of the current header.
  [[nodiscard]] std::size_t headroom() const { return head_; }

  /// Prepend `h`, which must fit in the headroom.
  void push_header(std::span<const std::uint8_t> h) {
    RTPB_EXPECTS(h.size() <= head_);
    head_ = static_cast<std::uint8_t>(head_ - h.size());
    std::copy(h.begin(), h.end(), hdr_.begin() + static_cast<std::ptrdiff_t>(head_));
  }

  /// Strip `n` bytes from the front of the header (n <= header size).  The
  /// span stays valid until the next mutation.
  std::span<const std::uint8_t> pop_header(std::size_t n) {
    RTPB_EXPECTS(n <= header_size());
    const std::span<const std::uint8_t> out{hdr_.data() + head_, n};
    head_ = static_cast<std::uint8_t>(head_ + n);
    return out;
  }

  /// Strip `n` bytes from the front of the body (the header must be
  /// empty).  The span points into the shared buffer.
  std::span<const std::uint8_t> pop_body(std::size_t n) {
    RTPB_EXPECTS(header_size() == 0 && n <= body_.length);
    const std::span<const std::uint8_t> out = body().first(n);
    body_.offset += n;
    body_.length -= n;
    return out;
  }

  /// XOR `mask` into byte `i`.  A body byte is flipped in a private copy
  /// of the body, so frames sharing the body keep the original bytes.
  void flip(std::size_t i, std::uint8_t mask) {
    RTPB_EXPECTS(i < size());
    if (i < header_size()) {
      hdr_[head_ + i] ^= mask;
      return;
    }
    const auto b = body();
    Bytes copy(b.begin(), b.end());
    copy[i - header_size()] ^= mask;
    body_ = SharedView{std::make_shared<const Bytes>(std::move(copy)), 0, b.size()};
  }

 private:
  [[nodiscard]] std::size_t header_size() const { return kHeaderCapacity - head_; }

  std::array<std::uint8_t, kHeaderCapacity> hdr_{};  ///< [head_, end) valid
  std::uint8_t head_ = kHeaderCapacity;
  SharedView body_;  ///< null buf = empty body
};

}  // namespace rtpb
