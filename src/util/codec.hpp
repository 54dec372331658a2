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
//   - std::vector<E> as a u32 count plus the elements;
//   - a record as its fields in tie() order.
//
// get() reports malformation the way ByteReader does: the reader ends up
// !ok().  A vector count that the remaining input cannot hold (each
// element takes at least the encoded size of a default-constructed E) is
// rejected before anything is reserved, so a forged count cannot drive a
// huge allocation.  Header-only: the store library compiles beneath core
// and links util alone.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

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
  } else {
    static_assert(kNoEncoding<T>, "no decoding for this field type");
  }
}

}  // namespace rtpb::codec
