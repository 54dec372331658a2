#include "store/durable_store.hpp"

#include <algorithm>
#include <map>

namespace rtpb::store {

DurableStore::DurableStore(StorageDevice& wal, StorageDevice& checkpoint,
                           std::size_t checkpoint_every)
    : wal_(wal), checkpoint_(checkpoint), checkpoint_every_(checkpoint_every) {}

bool DurableStore::append_wal() {
  if (!wal_.append(frame_.data())) return false;
  ++wal_appends_;
  ++records_since_checkpoint_;
  return true;
}

bool DurableStore::log_insert(const core::ObjectSpec& spec) {
  open_frame(frame_);
  put_insert(frame_, spec);
  close_frame(frame_);
  return append_wal();
}

bool DurableStore::log_write(core::ObjectId id, std::uint64_t version, TimePoint timestamp,
                             TimePoint origin_timestamp, std::span<const std::uint8_t> value) {
  open_frame(frame_);
  put_write(frame_, id, version, timestamp, origin_timestamp, value);
  close_frame(frame_);
  return append_wal();
}

bool DurableStore::log_meta(std::uint64_t epoch, std::uint64_t next_transfer_id) {
  open_frame(frame_);
  put_meta(frame_, epoch, next_transfer_id);
  close_frame(frame_);
  return append_wal();
}

bool DurableStore::checkpoint(const core::ObjectStore& store, std::uint64_t epoch,
                              std::uint64_t next_transfer_id) {
  open_frame(frame_);
  put_checkpoint_head(frame_, epoch, next_transfer_id, static_cast<std::uint32_t>(store.size()));
  store.for_each([this](const core::ObjectState& s) { put_checkpoint_state(frame_, s); });
  close_frame(frame_);
  return append_checkpoint();
}

bool DurableStore::checkpoint(const std::vector<core::ObjectState>& states,
                              std::uint64_t epoch, std::uint64_t next_transfer_id) {
  open_frame(frame_);
  put_checkpoint_head(frame_, epoch, next_transfer_id, static_cast<std::uint32_t>(states.size()));
  for (const core::ObjectState& s : states) put_checkpoint_state(frame_, s);
  close_frame(frame_);
  return append_checkpoint();
}

bool DurableStore::append_checkpoint() {
  if (!checkpoint_.append(frame_.data())) return false;
  // The checkpoint is durable; only now is it safe to drop the log it
  // subsumes.  A crash landing exactly here merely replays records the
  // checkpoint already holds — version-gated, hence idempotent.
  wal_.truncate();
  records_since_checkpoint_ = 0;
  ++checkpoints_;
  return true;
}

RecoveryResult DurableStore::recover() {
  RecoveryResult out;
  ++recoveries_;

  // Last-valid-checkpoint-wins: every older checkpoint (and a torn tail
  // from a crash mid-checkpoint) is simply superseded.
  std::optional<CheckpointRecord> base;
  const ReplayStats ckpt_stats = replay(checkpoint_.contents(), [&](auto payload) {
    if (auto rec = decode_record(payload); rec && rec->kind == RecordKind::kCheckpoint) {
      base = std::move(rec->checkpoint);
      ++out.checkpoint_records;
    }
  });
  out.checkpoint_torn = !ckpt_stats.clean;

  std::map<core::ObjectId, core::ObjectState> objects;
  if (base) {
    out.epoch = base->epoch;
    out.next_transfer_id = base->next_transfer_id;
    for (core::ObjectState& s : base->states) objects.emplace(s.spec.id, std::move(s));
  }

  const ReplayStats wal_stats = replay(wal_.contents(), [&](auto payload) {
    auto rec = decode_record(payload);
    if (!rec) return;  // decodable garbage behind a valid CRC cannot occur; be safe
    ++out.wal_records;
    switch (rec->kind) {
      case RecordKind::kInsert: {
        const core::ObjectSpec& spec = rec->insert->spec;
        core::ObjectState s;
        s.spec = spec;
        objects.emplace(spec.id, std::move(s));  // no-op on re-insert
        break;
      }
      case RecordKind::kWrite: {
        auto it = objects.find(rec->write->object);
        if (it == objects.end()) break;
        core::ObjectState& s = it->second;
        if (rec->write->version <= s.version) break;  // idempotent replay
        s.version = rec->write->version;
        s.timestamp = rec->write->timestamp;
        s.origin_timestamp = rec->write->origin_timestamp;
        s.value = std::move(rec->write->value);
        break;
      }
      case RecordKind::kMeta:
        out.epoch = std::max(out.epoch, rec->meta->epoch);
        out.next_transfer_id = std::max(out.next_transfer_id, rec->meta->next_transfer_id);
        break;
      case RecordKind::kCheckpoint:
        break;  // checkpoints never land on the WAL device
    }
  });
  out.wal_torn = !wal_stats.clean;

  out.states.reserve(objects.size());
  for (auto& [id, state] : objects) out.states.push_back(std::move(state));
  return out;
}

}  // namespace rtpb::store
