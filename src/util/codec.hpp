// Field-list codec: a record declares its fields once, in wire order, and
// its encoded size, writer and reader all derive from that one list.
//
//     struct Ack {
//       std::uint32_t object = 0;
//       std::uint64_t version = 0;
//       template <class S> static auto tie(S& s) { return std::tie(s.object, s.version); }
//     };
//
// (S is the record or the const record.)  Field encodings, all big-endian
// through ByteWriter / ByteReader:
//   - unsigned integers in their own width; bool as one byte (0 or 1);
//   - Duration and TimePoint as i64 nanoseconds;
//   - Bytes, Payload, std::string and std::span<const uint8_t> as a u32
//     length plus the bytes.  A span is written only (a WAL record built
//     straight from the caller's buffer); a Payload reads as a borrow of
//     the input (ByteReader::view()), valid only while the input is;
//   - std::vector<E> and Sequence<E> as a u32 count plus the elements;
//   - a record as its fields in tie() order.
//
// get() reports malformation the way ByteReader does: the reader ends up
// !ok().  A count that the remaining input cannot hold (each element
// takes at least the encoded size of a default-constructed E) is rejected
// before anything is reserved, so a forged count cannot drive a huge
// allocation.  Header-only: the store library compiles beneath core and
// links util alone.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/bytebuffer.hpp"
#include "util/time.hpp"

namespace rtpb::codec {

/// A type that lists its fields with a static tie().
template <class T>
concept Record = requires(T& t) { T::tie(t); };

template <class T>
inline constexpr bool kIsVector = false;
template <class E, class A>
inline constexpr bool kIsVector<std::vector<E, A>> = true;

template <class E>
class Sequence;
template <class T>
inline constexpr bool kIsSequence = false;
template <class E>
inline constexpr bool kIsSequence<Sequence<E>> = true;

template <class T>
[[nodiscard]] std::size_t size(const T& v);
template <class T>
void put(ByteWriter& w, const T& v);
template <class T>
void get(ByteReader& r, T& v);

/// A sequence field, encoded exactly like std::vector<E>, that decodes in
/// place.  A sender builds one with push_back().  get() reads every
/// element once, rejecting exactly the inputs the vector decoder rejects,
/// and keeps a view of the encoded elements instead of copying them out;
/// iterating a decoded sequence decodes each element from that view again,
/// into the iterator.  So decoding allocates nothing, and a decoded
/// sequence borrows its input: it is valid only while the input is.
template <class E>
class Sequence {
 public:
  /// Walks the built elements in place, or decodes the encoded ones one
  /// at a time (a reference is valid until the iterator moves).
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = E;
    using difference_type = std::ptrdiff_t;
    using pointer = const E*;
    using reference = const E&;

    Iterator() = default;
    const E& operator*() const { return built_ != nullptr ? *built_ : current_; }
    Iterator& operator++() {
      if (built_ != nullptr) {
        ++built_;
      } else if (--left_ > 0) {
        codec::get(reader_, current_);
      }
      return *this;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.built_ == b.built_ && a.left_ == b.left_;
    }

   private:
    friend class Sequence;
    explicit Iterator(const E* built) : built_(built) {}
    Iterator(std::span<const std::uint8_t> encoded, std::uint32_t count)
        : reader_(encoded), left_(count) {
      codec::get(reader_, current_);
    }

    const E* built_ = nullptr;  ///< the built arm's position
    ByteReader reader_{std::span<const std::uint8_t>{}};
    std::uint32_t left_ = 0;    ///< encoded elements from current_ on
    E current_{};
  };

  Sequence() = default;
  Sequence(std::initializer_list<E> built) : built_(built) {}

  void push_back(E e) {
    RTPB_EXPECTS(count_ == 0);
    built_.push_back(std::move(e));
  }
  /// Empty either arm, keeping the built elements' capacity.
  void clear() {
    built_.clear();
    encoded_ = {};
    count_ = 0;
  }
  [[nodiscard]] std::size_t size() const { return count_ > 0 ? count_ : built_.size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] Iterator begin() const {
    return count_ > 0 ? Iterator(encoded_, count_) : Iterator(built_.data());
  }
  [[nodiscard]] Iterator end() const {
    return count_ > 0 ? Iterator() : Iterator(built_.data() + built_.size());
  }
  /// Element `i`, by value: a decoded sequence walks to it.
  [[nodiscard]] E operator[](std::size_t i) const {
    RTPB_EXPECTS(i < size());
    Iterator it = begin();
    for (; i > 0; --i) ++it;
    return *it;
  }

  [[nodiscard]] std::size_t encoded_size() const {
    std::size_t n = sizeof(std::uint32_t) + encoded_.size();
    for (const E& e : built_) n += codec::size(e);
    return n;
  }
  void write(ByteWriter& w) const {
    w.u32(static_cast<std::uint32_t>(size()));
    w.raw(encoded_);
    for (const E& e : built_) codec::put(w, e);
  }
  /// The checks and reads of the vector decoder, in the same order, so
  /// the two accept exactly the same inputs.
  void read(ByteReader& r) {
    clear();
    const std::uint32_t n = r.u32();
    if (static_cast<std::size_t>(n) * codec::size(E{}) > r.remaining()) {
      r.fail();
      return;
    }
    const std::span<const std::uint8_t> start = r.rest();
    E scratch{};
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) codec::get(r, scratch);
    if (!r.ok()) return;
    encoded_ = start.first(start.size() - r.remaining());
    count_ = n;
  }

 private:
  std::vector<E> built_;                     ///< the built arm
  std::span<const std::uint8_t> encoded_;    ///< the decoded arm (count_ > 0)
  std::uint32_t count_ = 0;
};

/// Fields written as a u32 length plus their bytes.
template <class T>
concept LengthPrefixed = std::same_as<T, Bytes> || std::same_as<T, Payload> ||
                         std::same_as<T, std::string> ||
                         std::same_as<T, std::span<const std::uint8_t>>;

template <class T>
inline constexpr bool kNoEncoding = false;

/// Encoded size of `v` in bytes.
template <class T>
[[nodiscard]] std::size_t size(const T& v) {
  if constexpr (Record<T>) {
    return std::apply([](const auto&... f) { return (std::size_t{0} + ... + codec::size(f)); },
                      T::tie(v));
  } else if constexpr (std::same_as<T, bool>) {
    return 1;
  } else if constexpr (std::unsigned_integral<T>) {
    return sizeof(T);
  } else if constexpr (std::same_as<T, Duration> || std::same_as<T, TimePoint>) {
    return sizeof(std::int64_t);
  } else if constexpr (LengthPrefixed<T>) {
    return sizeof(std::uint32_t) + v.size();
  } else if constexpr (kIsVector<T>) {
    std::size_t n = sizeof(std::uint32_t);
    for (const auto& e : v) n += codec::size(e);
    return n;
  } else if constexpr (kIsSequence<T>) {
    return v.encoded_size();
  } else {
    static_assert(kNoEncoding<T>, "no encoding for this field type");
  }
}

/// Append the encoding of `v` to `w`.
template <class T>
void put(ByteWriter& w, const T& v) {
  if constexpr (Record<T>) {
    std::apply([&w](const auto&... f) { (codec::put(w, f), ...); }, T::tie(v));
  } else if constexpr (std::same_as<T, bool>) {
    w.u8(v ? 1 : 0);
  } else if constexpr (std::same_as<T, std::uint8_t>) {
    w.u8(v);
  } else if constexpr (std::same_as<T, std::uint16_t>) {
    w.u16(v);
  } else if constexpr (std::same_as<T, std::uint32_t>) {
    w.u32(v);
  } else if constexpr (std::same_as<T, std::uint64_t>) {
    w.u64(v);
  } else if constexpr (std::same_as<T, Duration>) {
    w.duration(v);
  } else if constexpr (std::same_as<T, TimePoint>) {
    w.timepoint(v);
  } else if constexpr (std::same_as<T, std::string>) {
    w.string(v);
  } else if constexpr (std::same_as<T, Payload>) {
    w.bytes(v.bytes());
  } else if constexpr (LengthPrefixed<T>) {
    w.bytes(v);
  } else if constexpr (kIsVector<T>) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) codec::put(w, e);
  } else if constexpr (kIsSequence<T>) {
    v.write(w);
  } else {
    static_assert(kNoEncoding<T>, "no encoding for this field type");
  }
}

/// Read `v` from `r`; on malformed input `r` ends up !ok().
template <class T>
void get(ByteReader& r, T& v) {
  if constexpr (Record<T>) {
    std::apply([&r](auto&... f) { (codec::get(r, f), ...); }, T::tie(v));
  } else if constexpr (std::same_as<T, bool>) {
    v = r.u8() != 0;
  } else if constexpr (std::same_as<T, std::uint8_t>) {
    v = r.u8();
  } else if constexpr (std::same_as<T, std::uint16_t>) {
    v = r.u16();
  } else if constexpr (std::same_as<T, std::uint32_t>) {
    v = r.u32();
  } else if constexpr (std::same_as<T, std::uint64_t>) {
    v = r.u64();
  } else if constexpr (std::same_as<T, Duration>) {
    v = r.duration();
  } else if constexpr (std::same_as<T, TimePoint>) {
    v = r.timepoint();
  } else if constexpr (std::same_as<T, std::string>) {
    v = r.string();
  } else if constexpr (std::same_as<T, Bytes>) {
    v = r.bytes();
  } else if constexpr (std::same_as<T, Payload>) {
    v = Payload::borrow(r.view());
  } else if constexpr (kIsVector<T>) {
    using E = typename T::value_type;
    const std::uint32_t n = r.u32();
    if (static_cast<std::size_t>(n) * codec::size(E{}) > r.remaining()) {
      r.fail();
      return;
    }
    v.clear();
    v.reserve(n);
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) codec::get(r, v.emplace_back());
  } else if constexpr (kIsSequence<T>) {
    v.read(r);
  } else {
    static_assert(kNoEncoding<T>, "no decoding for this field type");
  }
}

}  // namespace rtpb::codec
