#include "store/wal.hpp"

#include <array>

#include "util/codec.hpp"

namespace rtpb::store {
namespace {

// ---- record bodies ----------------------------------------------------
//
// The same codec as the wire (util/codec.hpp): a payload is the record's
// kind byte, then its fields in tie() order; a decoder rejects a short
// body, a forged count or trailing bytes.

template <class R>
void put_record(ByteWriter& w, const R& rec) {
  w.u8(static_cast<std::uint8_t>(R::kKind));
  codec::put(w, rec);
}

template <class R>
Bytes encode_record(const R& rec) {
  ByteWriter w(1 + codec::size(rec));
  put_record(w, rec);
  return std::move(w).take();
}

template <class R>
std::optional<AnyRecord> get_record(ByteReader& r, std::optional<R> AnyRecord::*slot) {
  AnyRecord out;
  out.kind = R::kKind;
  codec::get(r, (out.*slot).emplace());
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return out;
}

// Slicing-by-8 tables: kCrcTables[0] is the classic one-byte table, and
// kCrcTables[k][i] is kCrcTables[0][i] carried through k more zero bytes,
// so one step folds eight input bytes with eight independent lookups.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrcTables = make_crc_tables();

// Little-endian load, byte by byte so the result does not depend on the
// host's byte order (compilers fold it into one load where they can).
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const auto& t = kCrcTables;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

void put_insert(ByteWriter& w, const core::ObjectSpec& spec) {
  // An insert's one field is the spec: write it in place, without a copy.
  w.u8(static_cast<std::uint8_t>(RecordKind::kInsert));
  codec::put(w, spec);
}

void put_write(ByteWriter& w, core::ObjectId object, std::uint64_t version, TimePoint timestamp,
               TimePoint origin_timestamp, std::span<const std::uint8_t> value) {
  put_record(w, BasicWriteRecord<std::span<const std::uint8_t>>{object, version, timestamp,
                                                                origin_timestamp, value});
}

void put_meta(ByteWriter& w, std::uint64_t epoch, std::uint64_t next_transfer_id) {
  put_record(w, MetaRecord{epoch, next_transfer_id});
}

void put_checkpoint_head(ByteWriter& w, std::uint64_t epoch, std::uint64_t next_transfer_id,
                         std::uint32_t count) {
  // The head is an empty checkpoint, whose state count ends the payload.
  put_record(w, CheckpointRecord{epoch, next_transfer_id, {}});
  w.patch_u32(w.size() - sizeof count, count);
}

void put_checkpoint_state(ByteWriter& w, const core::ObjectState& s) { codec::put(w, s); }

Bytes encode(const InsertRecord& r) { return encode_record(r); }
Bytes encode(const WriteRecord& r) { return encode_record(r); }
Bytes encode(const MetaRecord& r) { return encode_record(r); }
Bytes encode(const CheckpointRecord& r) { return encode_record(r); }

std::optional<AnyRecord> decode_record(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  switch (static_cast<RecordKind>(r.u8())) {
    case RecordKind::kInsert: return get_record(r, &AnyRecord::insert);
    case RecordKind::kWrite: return get_record(r, &AnyRecord::write);
    case RecordKind::kMeta: return get_record(r, &AnyRecord::meta);
    case RecordKind::kCheckpoint: return get_record(r, &AnyRecord::checkpoint);
  }
  return std::nullopt;  // an empty payload or an unknown kind
}

Bytes frame_record(std::span<const std::uint8_t> payload) {
  ByteWriter w(4 + 4 + payload.size());
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(crc32(payload));
  w.raw(payload);
  return std::move(w).take();
}

void open_frame(ByteWriter& w) {
  w.reset(8);  // payload length and CRC, patched by close_frame
}

void close_frame(ByteWriter& w) {
  const std::span<const std::uint8_t> payload = std::span(w.data()).subspan(8);
  w.patch_u32(0, static_cast<std::uint32_t>(payload.size()));
  w.patch_u32(4, crc32(payload));
}

ReplayStats replay(std::span<const std::uint8_t> log,
                   const std::function<void(std::span<const std::uint8_t>)>& fn) {
  ReplayStats stats;
  std::size_t pos = 0;
  while (pos < log.size()) {
    if (log.size() - pos < 8) break;  // torn frame header
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    for (int i = 0; i < 4; ++i) len = (len << 8) | log[pos + static_cast<std::size_t>(i)];
    for (int i = 4; i < 8; ++i) crc = (crc << 8) | log[pos + static_cast<std::size_t>(i)];
    if (log.size() - pos - 8 < len) break;  // torn payload
    const auto payload = log.subspan(pos + 8, len);
    if (crc32(payload) != crc) break;  // bit-rot or a torn rewrite
    fn(payload);
    ++stats.records;
    pos += 8 + len;
  }
  stats.torn_bytes = log.size() - pos;
  stats.clean = stats.torn_bytes == 0;
  return stats;
}

}  // namespace rtpb::store
