#include "util/bytebuffer.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace rtpb {
namespace {

TEST(ByteBuffer, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.14159);

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(ByteBuffer, BigEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x01);
  EXPECT_EQ(w.data()[3], 0x04);
}

TEST(ByteBuffer, ExactReserveNeverReallocates) {
  // Multi-byte appends go in as one bulk insert, so a writer reserved at
  // the exact frame size encodes without growing — the one-allocation
  // frame-encode invariant the wirepath bench asserts with a real
  // allocation counter.
  const std::size_t frame = 1 + 2 + 4 + 8 + 8 + (4 + 16);
  ByteWriter w(frame);
  const std::size_t cap = w.data().capacity();
  ASSERT_GE(cap, frame);
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.bytes(Bytes(16, 0x77));
  EXPECT_EQ(w.size(), frame);
  EXPECT_EQ(w.data().capacity(), cap);
}

TEST(ByteBuffer, AppendedScalarsDecodeAfterBulkInsert) {
  // The bulk big-endian path must keep byte order: round-trip mixed widths
  // back to back with no padding.
  ByteWriter w;
  for (std::uint32_t i = 0; i < 64; ++i) {
    w.u16(static_cast<std::uint16_t>(i * 257));
    w.u64(static_cast<std::uint64_t>(i) * 0x0101010101010101ULL);
  }
  ByteReader r(w.data());
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(r.u16(), static_cast<std::uint16_t>(i * 257));
    EXPECT_EQ(r.u64(), static_cast<std::uint64_t>(i) * 0x0101010101010101ULL);
  }
  EXPECT_TRUE(r.ok() && r.at_end());
}

TEST(ByteBuffer, RoundTripTimeTypes) {
  ByteWriter w;
  w.duration(millis(17));
  w.timepoint(TimePoint{123456789});
  ByteReader r(w.data());
  EXPECT_EQ(r.duration(), millis(17));
  EXPECT_EQ(r.timepoint(), TimePoint{123456789});
  EXPECT_TRUE(r.ok());
}

TEST(ByteBuffer, RoundTripStringsAndBytes) {
  ByteWriter w;
  w.string("hello");
  w.string("");
  Bytes blob{1, 2, 3, 255};
  w.bytes(blob);
  ByteReader r(w.data());
  EXPECT_EQ(r.string(), "hello");
  EXPECT_EQ(r.string(), "");
  EXPECT_EQ(r.bytes(), blob);
  EXPECT_TRUE(r.at_end());
}

TEST(ByteBuffer, OverReadSetsFailed) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  EXPECT_EQ(r.u16(), 7);
  EXPECT_EQ(r.u32(), 0u);  // past end: zero value
  EXPECT_FALSE(r.ok());
}

TEST(ByteBuffer, TruncatedLengthPrefixFails) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 bytes follow but none do
  ByteReader r(w.data());
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_FALSE(r.ok());
}

TEST(ByteBuffer, ViewBorrowsTheInput) {
  ByteWriter w;
  w.bytes(Bytes{7, 8, 9});
  w.u32(4);  // a second length prefix that runs past the end
  ByteReader r(w.data());
  const std::span<const std::uint8_t> v = r.view();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.data(), w.data().data() + 4);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.view().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Payload, CopyOfAnOwnerSurvivesItsSource) {
  auto source = std::make_unique<Payload>(Bytes{1, 2, 3});
  const std::uint8_t* source_bytes = source->bytes().data();
  const Payload copy = *source;
  Payload assigned;
  assigned = *source;
  Payload moved;
  moved = Payload(*source);  // a copy, moved in
  source.reset();
  const Payload* const copies[] = {&copy, &assigned, &moved};
  for (const Payload* p : copies) {
    EXPECT_NE(p->bytes().data(), source_bytes);
    EXPECT_EQ(*p, Payload(Bytes{1, 2, 3}));
  }
}

TEST(Payload, MovedOwnerKeepsItsBuffer) {
  Payload source(Bytes{4, 5});
  const std::uint8_t* bytes = source.bytes().data();
  Payload moved(std::move(source));
  EXPECT_EQ(moved.bytes().data(), bytes);
  Payload assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.bytes().data(), bytes);
  EXPECT_EQ(assigned, Payload(Bytes{4, 5}));
}

TEST(Payload, CopyOfABorrowerViewsTheSameBytes) {
  const Bytes frame{1, 2, 3, 4};
  const Payload borrowed = Payload::borrow(std::span(frame).subspan(1, 2));
  const Payload copy = borrowed;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.bytes().data(), frame.data() + 1);
  EXPECT_EQ(copy, Payload(Bytes{2, 3}));
  EXPECT_FALSE(copy == Payload(Bytes{2, 3, 4}));
}

TEST(ByteBuffer, NegativeDurationSurvives) {
  ByteWriter w;
  w.duration(millis(-5));
  ByteReader r(w.data());
  EXPECT_EQ(r.duration(), millis(-5));
}

TEST(ByteBuffer, RawAppendHasNoPrefix) {
  ByteWriter w;
  Bytes raw{9, 8, 7};
  w.raw(raw);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.data(), raw);
}

}  // namespace
}  // namespace rtpb
