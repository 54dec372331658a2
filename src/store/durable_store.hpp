// Durability layer feeding core::ObjectStore: a CRC-framed write-ahead
// log plus periodic full-snapshot checkpoints, each on its own
// StorageDevice.
//
// Discipline (log-before-apply): the replica appends the WAL record FIRST
// and only mutates its in-memory store — and acknowledges the client —
// when the append succeeded.  An append failure is fail-stop: the replica
// crashes with the write unapplied and unacked, so recovered state is
// never behind anything a client was told about.
//
// Checkpoints are append-only on the checkpoint device with
// last-valid-checkpoint-wins recovery; the WAL is truncated only AFTER
// the checkpoint append succeeded.  A crash between the two leaves WAL
// records that are already inside the checkpoint — replay is idempotent
// (version-gated) so that window is harmless.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/object_store.hpp"
#include "core/types.hpp"
#include "store/device.hpp"
#include "store/wal.hpp"

namespace rtpb::store {

struct RecoveryResult {
  std::vector<core::ObjectState> states;  ///< ascending object id
  std::uint64_t epoch = 0;
  std::uint64_t next_transfer_id = 1;
  std::size_t checkpoint_records = 0;  ///< valid checkpoints found
  std::size_t wal_records = 0;         ///< valid WAL records replayed
  bool wal_torn = false;               ///< WAL had a discarded torn tail
  bool checkpoint_torn = false;        ///< checkpoint device had one
};

class DurableStore {
 public:
  /// `checkpoint_every`: WAL records between automatic checkpoint
  /// suggestions (should_checkpoint()).
  DurableStore(StorageDevice& wal, StorageDevice& checkpoint,
               std::size_t checkpoint_every = 64);

  // Each logger returns false on device failure — the caller must treat
  // that as fail-stop and NOT apply the mutation.
  [[nodiscard]] bool log_insert(const core::ObjectSpec& spec);
  [[nodiscard]] bool log_write(core::ObjectId id, std::uint64_t version, TimePoint timestamp,
                               TimePoint origin_timestamp, std::span<const std::uint8_t> value);
  [[nodiscard]] bool log_meta(std::uint64_t epoch, std::uint64_t next_transfer_id);

  [[nodiscard]] bool should_checkpoint() const {
    return records_since_checkpoint_ >= checkpoint_every_;
  }

  /// Snapshot the full store state to the checkpoint device, then
  /// truncate the WAL.  Returns false (fail-stop) on device failure.  The
  /// store overload encodes the live objects, with no snapshot copy.
  [[nodiscard]] bool checkpoint(const core::ObjectStore& store, std::uint64_t epoch,
                                std::uint64_t next_transfer_id);
  [[nodiscard]] bool checkpoint(const std::vector<core::ObjectState>& states,
                                std::uint64_t epoch, std::uint64_t next_transfer_id);

  /// Rebuild state from the devices: last valid checkpoint, then the WAL
  /// tail on top (insert/write version-gated, meta monotone).
  [[nodiscard]] RecoveryResult recover();

  // ---- plain statistics ----
  [[nodiscard]] std::uint64_t wal_appends() const { return wal_appends_; }
  [[nodiscard]] std::uint64_t checkpoints() const { return checkpoints_; }
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }
  [[nodiscard]] StorageDevice& wal_device() { return wal_; }
  [[nodiscard]] StorageDevice& checkpoint_device() { return checkpoint_; }

 private:
  /// Append frame_ (framed in place by open_frame/close_frame).
  [[nodiscard]] bool append_wal();
  [[nodiscard]] bool append_checkpoint();

  StorageDevice& wal_;
  StorageDevice& checkpoint_;
  std::size_t checkpoint_every_;
  std::size_t records_since_checkpoint_ = 0;
  std::uint64_t wal_appends_ = 0;
  std::uint64_t checkpoints_ = 0;
  std::uint64_t recoveries_ = 0;
  /// Every record is framed here, in place; the buffer keeps its capacity,
  /// so a steady stream of appends allocates nothing.
  ByteWriter frame_;
};

}  // namespace rtpb::store
