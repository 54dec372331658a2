// kUpdateBatch decodes in place (codec::Sequence): it must reject exactly
// the frames the std::vector decoder it replaced rejected, and a backup
// must apply no entry of a batch it rejects.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/rtpb.hpp"
#include "core/wire.hpp"
#include "util/rng.hpp"

namespace rtpb::core::wire {
namespace {

/// UpdateBatch with its entries in a std::vector: the reference decoder.
struct VectorBatch {
  std::vector<UpdateBatchEntry> entries;
  std::uint64_t epoch = 0;
  template <class S> static auto tie(S& s) { return std::tie(s.entries, s.epoch); }
};

/// What the reference decoder makes of `frame` (nullopt: rejected), with
/// the checks wire::decode makes around the fields.
std::optional<VectorBatch> reference_decode(std::span<const std::uint8_t> frame) {
  if (frame.empty()) return std::nullopt;
  ByteReader r(frame);
  if (static_cast<MsgType>(r.u8()) != MsgType::kUpdateBatch) return std::nullopt;
  VectorBatch b;
  codec::get(r, b);
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return b;
}

/// Both decoders agree on `frame`: both reject it, or both accept it with
/// the same entries.
void expect_same_verdict(std::span<const std::uint8_t> frame, const std::string& what) {
  const auto reference = reference_decode(frame);
  const auto decoded = decode(frame);
  const auto* batch = decoded ? std::get_if<UpdateBatch>(&*decoded) : nullptr;
  ASSERT_EQ(reference.has_value(), batch != nullptr) << what;
  if (batch == nullptr) return;
  EXPECT_EQ(batch->epoch, reference->epoch) << what;
  ASSERT_EQ(batch->entries.size(), reference->entries.size()) << what;
  std::size_t i = 0;
  for (const UpdateBatchEntry& e : batch->entries) {
    const UpdateBatchEntry& want = reference->entries[i++];
    EXPECT_EQ(e.object, want.object) << what;
    EXPECT_EQ(e.version, want.version) << what;
    EXPECT_EQ(e.timestamp, want.timestamp) << what;
    EXPECT_EQ(e.value, want.value) << what;
  }
}

UpdateBatch three_entries() {
  return UpdateBatch{{UpdateBatchEntry{1, 2, TimePoint{3}, Bytes{0xA1, 0xA2}},
                      UpdateBatchEntry{4, 5, TimePoint{6}, Bytes{}},
                      UpdateBatchEntry{7, 8, TimePoint{9}, Bytes{0xB1, 0xB2, 0xB3}}},
                     10};
}

std::string hex(const Bytes& b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t v : b) {
    out.push_back(kDigits[v >> 4]);
    out.push_back(kDigits[v & 0xF]);
  }
  return out;
}

TEST(BatchDecode, ThePinnedFrameDecodesTheSameWay) {
  const Bytes frame = encode(three_entries());
  EXPECT_EQ(hex(frame),
            "0a00000003"
            "00000001" "0000000000000002" "0000000000000003" "00000002a1a2"
            "00000004" "0000000000000005" "0000000000000006" "00000000"
            "00000007" "0000000000000008" "0000000000000009" "00000003b1b2b3"
            "000000000000000a");
  expect_same_verdict(frame, "whole");
  ASSERT_TRUE(reference_decode(frame).has_value());
}

TEST(BatchDecode, EveryTruncationIsRejectedByBoth) {
  const Bytes frame = encode(three_entries());
  for (std::size_t n = 0; n < frame.size(); ++n) {
    const std::span<const std::uint8_t> cut(frame.data(), n);
    expect_same_verdict(cut, "truncated to " + std::to_string(n));
    EXPECT_FALSE(decode(cut).has_value()) << n;
  }
}

TEST(BatchDecode, CountsTheRestCannotHoldAreRejectedByBoth) {
  const Bytes frame = encode(three_entries());
  // Past the entries: a count one too high, one just past what the
  // remaining bytes could hold at 24 bytes an entry, and the largest.
  const std::size_t after_count = frame.size() - 5;
  for (const std::uint32_t count : {std::uint32_t{4}, static_cast<std::uint32_t>(after_count / 24 + 1),
                                    std::uint32_t{0xFFFFFFFF}}) {
    Bytes forged = frame;
    store_be(forged.data() + 1, count);
    expect_same_verdict(forged, "count " + std::to_string(count));
    EXPECT_FALSE(decode(forged).has_value()) << count;
  }
  // A count too low leaves entries over as trailing bytes.
  for (const std::uint32_t count : {std::uint32_t{0}, std::uint32_t{2}}) {
    Bytes forged = frame;
    store_be(forged.data() + 1, count);
    expect_same_verdict(forged, "count " + std::to_string(count));
    EXPECT_FALSE(decode(forged).has_value()) << count;
  }
}

TEST(BatchDecode, TrailingBytesAreRejectedByBoth) {
  for (const std::size_t extra : {std::size_t{1}, std::size_t{8}, std::size_t{24}}) {
    Bytes frame = encode(three_entries());
    frame.insert(frame.end(), extra, 0);
    expect_same_verdict(frame, "trailing " + std::to_string(extra));
    EXPECT_FALSE(decode(frame).has_value()) << extra;
  }
}

TEST(BatchDecode, RandomCorruptionsGetTheSameVerdict) {
  Rng rng(23);
  const Bytes frame = encode(three_entries());
  for (int trial = 0; trial < 5'000; ++trial) {
    Bytes mutated = frame;
    const auto flips = rng.uniform(1, 3);
    for (std::int64_t f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[at] = static_cast<std::uint8_t>(rng.uniform(0, 255));
    }
    if (rng.bernoulli(0.2)) {
      mutated.resize(static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(mutated.size()))));
    }
    expect_same_verdict(mutated, "trial " + std::to_string(trial));
  }
}

TEST(BatchDecode, ABackupAppliesNoPrefixOfARejectedBatch) {
  ServiceParams params;
  params.seed = 5;
  params.link.propagation = millis(1);
  params.config.enable_fragmentation = false;  // the injector speaks UDPLITE
  RtpbService service(params);
  service.start();
  for (ObjectId id = 1; id <= 2; ++id) {
    ObjectSpec spec;
    spec.id = id;
    spec.name = std::string("obj").append(std::to_string(id));
    spec.client_period = millis(10);
    spec.client_exec = micros(200);
    spec.update_exec = micros(200);
    spec.delta_primary = millis(20);
    spec.delta_backup = millis(100);
    ASSERT_TRUE(service.register_object(spec).ok());
  }
  service.run_for(millis(300));
  xkernel::HostStack injector(service.network());
  service.network().connect(injector.node(), service.backup().node(), net::LinkParams{});

  // A first entry no stream could send (version 10^6), then a second
  // whose value runs past the end of the frame.
  constexpr std::uint64_t kForged = 1'000'000;
  const UpdateBatch batch{{UpdateBatchEntry{1, kForged, TimePoint{1}, Bytes(16, 0xAB)},
                           UpdateBatchEntry{2, kForged, TimePoint{1}, Bytes(16, 0xCD)}},
                          0};
  const Bytes whole = encode(batch);
  const Bytes cut(whole.begin(), whole.end() - 12);
  injector.send_datagram(kRtpbPort, service.backup().endpoint(), cut);
  service.run_for(millis(50));
  EXPECT_EQ(service.backup().undecodable_frames(), 1u);
  EXPECT_LT(service.backup().read(1)->version, kForged);
  EXPECT_LT(service.backup().read(2)->version, kForged);

  // The same batch whole applies both entries: the injection reaches the
  // decoder, so the rejection above is the decoder's.
  injector.send_datagram(kRtpbPort, service.backup().endpoint(), whole);
  service.run_for(millis(50));
  EXPECT_EQ(service.backup().undecodable_frames(), 1u);
  EXPECT_EQ(service.backup().read(1)->version, kForged);
  EXPECT_EQ(service.backup().read(2)->version, kForged);
  EXPECT_EQ(service.backup().read(1)->value, Bytes(16, 0xAB));
}

}  // namespace
}  // namespace rtpb::core::wire
