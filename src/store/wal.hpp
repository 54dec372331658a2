// Write-ahead-log record format.
//
// Every record on the device is CRC-framed:
//
//     u32 payload_len | u32 crc32(payload) | payload
//
// and the payload is a 1-byte record kind followed by the body.  Replay
// walks the device front to back and stops at the FIRST record whose
// frame is short or whose CRC mismatches — the single-file prefix-
// durability discipline (recall ALICE): a torn tail never resurrects as
// state, and everything before it is exactly what was acknowledged.
//
// Record bodies share the wire's field-list codec (util/codec.hpp): each
// record lists its fields once with tie(), and its size, writer and
// reader derive from that list.  The codec is header-only and the core
// structs it reuses (ObjectSpec / ObjectState) are header-only too, so
// the durable store links util alone and compiles underneath rtpb_core.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "core/object_store.hpp"
#include "core/types.hpp"
#include "util/bytebuffer.hpp"

namespace rtpb::store {

/// IEEE 802.3 CRC-32 (reflected, poly 0xEDB88320), eight bytes per step
/// (slicing-by-8); the output equals the one-byte-per-step definition.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

enum class RecordKind : std::uint8_t {
  kInsert = 1,      ///< object registered (spec only, version 0)
  kWrite = 2,       ///< one object write/apply: id, version, timestamps, value
  kMeta = 3,        ///< fenced replica metadata: epoch + next transfer id
  kCheckpoint = 4,  ///< full store snapshot (checkpoint device only)
};

struct InsertRecord {
  static constexpr RecordKind kKind = RecordKind::kInsert;
  core::ObjectSpec spec;
  template <class S> static auto tie(S& s) { return std::tie(s.spec); }
};

/// One write's layout for both directions: decode fills the owning form
/// (WriteRecord, V = Bytes), and the append path writes the borrowing form
/// (V = span) straight from the caller's buffer.
template <class V>
struct BasicWriteRecord {
  static constexpr RecordKind kKind = RecordKind::kWrite;
  core::ObjectId object = core::kInvalidObject;
  std::uint64_t version = 0;
  TimePoint timestamp{};
  TimePoint origin_timestamp{};
  V value;
  template <class S> static auto tie(S& s) {
    return std::tie(s.object, s.version, s.timestamp, s.origin_timestamp, s.value);
  }
};
using WriteRecord = BasicWriteRecord<Bytes>;

/// Replica identity that must survive a restart FENCED: a recovered
/// replica that forgot its epoch could accept a deposed primary's
/// traffic, and one that forgot its transfer-id high water could mint
/// transfer ids peers silently discard as stale.
struct MetaRecord {
  static constexpr RecordKind kKind = RecordKind::kMeta;
  std::uint64_t epoch = 0;
  std::uint64_t next_transfer_id = 1;
  template <class S> static auto tie(S& s) { return std::tie(s.epoch, s.next_transfer_id); }
};

struct CheckpointRecord {
  static constexpr RecordKind kKind = RecordKind::kCheckpoint;
  std::uint64_t epoch = 0;
  std::uint64_t next_transfer_id = 1;
  std::vector<core::ObjectState> states;
  template <class S> static auto tie(S& s) {
    return std::tie(s.epoch, s.next_transfer_id, s.states);
  }
};

struct AnyRecord {
  RecordKind kind{};
  std::optional<InsertRecord> insert;
  std::optional<WriteRecord> write;
  std::optional<MetaRecord> meta;
  std::optional<CheckpointRecord> checkpoint;
};

// ---- payload writers --------------------------------------------------
// Each appends one record payload (the kind byte, then the body) to `w`.
// encode() runs one into a fresh buffer; DurableStore runs them straight
// into its reused frame, so a value is copied once, from the caller's span.

void put_insert(ByteWriter& w, const core::ObjectSpec& spec);
void put_write(ByteWriter& w, core::ObjectId object, std::uint64_t version, TimePoint timestamp,
               TimePoint origin_timestamp, std::span<const std::uint8_t> value);
void put_meta(ByteWriter& w, std::uint64_t epoch, std::uint64_t next_transfer_id);
/// A checkpoint payload is this head, then put_checkpoint_state() `count` times.
void put_checkpoint_head(ByteWriter& w, std::uint64_t epoch, std::uint64_t next_transfer_id,
                         std::uint32_t count);
void put_checkpoint_state(ByteWriter& w, const core::ObjectState& s);

[[nodiscard]] Bytes encode(const InsertRecord& r);
[[nodiscard]] Bytes encode(const WriteRecord& r);
[[nodiscard]] Bytes encode(const MetaRecord& r);
[[nodiscard]] Bytes encode(const CheckpointRecord& r);

/// Decode one record payload (the bytes inside a frame).  nullopt on any
/// malformation — short body, trailing garbage, absurd counts.
[[nodiscard]] std::optional<AnyRecord> decode_record(std::span<const std::uint8_t> payload);

/// Wrap a payload in the length+CRC frame.  The reference format: every
/// frame a DurableStore appends equals frame_record(encode(record)).
[[nodiscard]] Bytes frame_record(std::span<const std::uint8_t> payload);

/// In-place framing.  open_frame() resets `w` (keeping its capacity) to
/// the 8-byte header placeholder; the caller then appends the
/// payload; close_frame() patches its length and CRC into the header.
/// The result equals frame_record(payload), without the payload copy.
void open_frame(ByteWriter& w);
void close_frame(ByteWriter& w);

struct ReplayStats {
  std::size_t records = 0;     ///< valid records delivered to the callback
  std::size_t torn_bytes = 0;  ///< bytes after the valid prefix, discarded
  bool clean = true;           ///< false when a torn/corrupt tail was cut
};

/// Walk `log` record by record, handing each valid payload to `fn`.
/// Stops at the first short frame or CRC mismatch (prefix durability).
ReplayStats replay(std::span<const std::uint8_t> log,
                   const std::function<void(std::span<const std::uint8_t>)>& fn);

}  // namespace rtpb::store
