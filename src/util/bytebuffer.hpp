// Endian-safe wire serialisation.  All multi-byte integers are encoded
// big-endian ("network order") regardless of host, so encoded frames are
// portable and byte-for-byte reproducible.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/time.hpp"

namespace rtpb {

using Bytes = std::vector<std::uint8_t>;

/// Store `v` big-endian at `out` (sizeof(T) bytes).
template <typename T>
void store_be(std::uint8_t* out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<std::uint8_t>((v >> (8 * (sizeof(T) - 1 - i))) & 0xFF);
  }
}

/// A byte string that either owns its buffer or borrows someone else's.
/// Built from a `Bytes`, it owns that buffer (and a copy copies it);
/// borrow() views a span it does not own (and a copy views the same
/// bytes).  A borrowed value is valid only while the viewed bytes are:
/// the wire decoder borrows update values straight from the frame, so a
/// decoded update must not outlive its frame.  bytes() reads either arm
/// the same way.
class Payload {
 public:
  Payload() = default;
  /// Own `owned` (implicit, so `Entry{..., Bytes(n, x)}` builds an owner).
  // NOLINTNEXTLINE(google-explicit-constructor)
  Payload(Bytes owned) : owned_(std::move(owned)), view_(owned_) {}
  [[nodiscard]] static Payload borrow(std::span<const std::uint8_t> bytes) {
    Payload p;
    p.view_ = bytes;
    return p;
  }

  // Only an owner's buffer is ever non-empty; its copy must view its own.
  Payload(const Payload& o) : owned_(o.owned_), view_(o.viewed_by(owned_)) {}
  Payload(Payload&& o) noexcept : owned_(std::move(o.owned_)), view_(o.viewed_by(owned_)) {
    o.view_ = {};
  }
  Payload& operator=(const Payload& o) {
    if (this != &o) {
      owned_ = o.owned_;
      view_ = o.viewed_by(owned_);
    }
    return *this;
  }
  Payload& operator=(Payload&& o) noexcept {
    if (this != &o) {
      owned_ = std::move(o.owned_);
      view_ = o.viewed_by(owned_);
      o.owned_.clear();
      o.view_ = {};
    }
    return *this;
  }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const { return view_; }
  [[nodiscard]] std::size_t size() const { return view_.size(); }

  friend bool operator==(const Payload& a, const Payload& b) {
    return std::equal(a.view_.begin(), a.view_.end(), b.view_.begin(), b.view_.end());
  }

 private:
  /// What a copy or move of this value views, given the buffer it now
  /// holds: that buffer for an owner, the same bytes for a borrower.
  [[nodiscard]] std::span<const std::uint8_t> viewed_by(const Bytes& held) const {
    return held.empty() ? view_ : std::span<const std::uint8_t>(held);
  }

  Bytes owned_;
  std::span<const std::uint8_t> view_;
};

/// Appends values to a growing byte vector.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }
  /// Write into `buf`'s storage: its contents are dropped and its capacity
  /// kept (grown to `reserve` if short), so a buffer handed back and forth
  /// through take() stops allocating once it has held its largest frame.
  ByteWriter(Bytes buf, std::size_t reserve) : buf_(std::move(buf)) {
    buf_.clear();
    buf_.reserve(reserve);
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_be(v); }
  void u32(std::uint32_t v) { append_be(v); }
  void u64(std::uint64_t v) { append_be(v); }
  void i64(std::int64_t v) { append_be(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    append_be(bits);
  }
  void duration(Duration d) { i64(d.nanos()); }
  void timepoint(TimePoint t) { i64(t.nanos()); }

  /// Length-prefixed (u32) byte string.
  void bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
  }
  void string(std::string_view s) {
    bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  /// Raw append without a length prefix.
  void raw(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Overwrite four already-written bytes at `pos`, big-endian: fills in
  /// a header placeholder once the body after it is known.
  void patch_u32(std::size_t pos, std::uint32_t v) {
    RTPB_ASSERT(pos + sizeof v <= buf_.size());
    store_be(buf_.data() + pos, v);
  }
  /// Replace the contents with `n` zero bytes (a header placeholder for
  /// patch_u32), keeping the capacity: a writer reused per record stops
  /// allocating once it has held its largest record.
  void reset(std::size_t n) { buf_.assign(n, 0); }

  [[nodiscard]] const Bytes& data() const& { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void append_be(T v) {
    // One bulk insert instead of per-byte push_back: a frame encoded into
    // an exactly-reserved writer costs a single allocation.
    std::uint8_t be[sizeof(T)];
    store_be(be, v);
    buf_.insert(buf_.end(), be, be + sizeof(T));
  }
  Bytes buf_;
};

/// Builds a fixed-size header on the stack, big-endian like ByteWriter, so
/// a protocol header pushed per frame costs no allocation.  Every byte
/// must be written before data() is read.
template <std::size_t N>
class HeaderWriter {
 public:
  void u8(std::uint8_t v) { put(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }

  [[nodiscard]] std::span<const std::uint8_t> data() const {
    RTPB_ASSERT(pos_ == N);
    return buf_;
  }

 private:
  template <typename T>
  void put(T v) {
    RTPB_ASSERT(pos_ + sizeof(T) <= N);
    store_be(buf_.data() + pos_, v);
    pos_ += sizeof(T);
  }
  std::array<std::uint8_t, N> buf_{};
  std::size_t pos_ = 0;
};

/// Consumes values from a byte span.  Over-reads are flagged via ok();
/// reads past the end return zero values so callers can check once at the
/// end of a decode instead of after every field.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return read_be<std::uint8_t>(); }
  std::uint16_t u16() { return read_be<std::uint16_t>(); }
  std::uint32_t u32() { return read_be<std::uint32_t>(); }
  std::uint64_t u64() { return read_be<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(read_be<std::uint64_t>()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  Duration duration() { return Duration{i64()}; }
  TimePoint timepoint() { return TimePoint{i64()}; }

  /// Length-prefixed (u32) byte string, as a view into the input: valid
  /// only while the input is.
  std::span<const std::uint8_t> view() {
    const std::uint32_t n = u32();
    if (remaining() < n) { fail(); return {}; }
    const std::span<const std::uint8_t> out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  Bytes bytes() {
    const std::span<const std::uint8_t> v = view();
    return {v.begin(), v.end()};
  }
  std::string string() {
    const std::span<const std::uint8_t> v = view();
    return {v.begin(), v.end()};
  }

  /// Mark the input malformed: every later read returns a zero value.
  void fail() {
    failed_ = true;
    pos_ = data_.size();
  }

  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// The unread input.
  [[nodiscard]] std::span<const std::uint8_t> rest() const { return data_.subspan(pos_); }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  T read_be() {
    if (remaining() < sizeof(T)) {
      fail();
      return T{};
    }
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(static_cast<T>(v << 8) | data_[pos_ + i]);
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace rtpb
