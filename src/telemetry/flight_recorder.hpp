// Flight recorder: a fixed-capacity ring of compact binary event records
// (role changes, epochs, sends/acks, shed/downgrade decisions, oracle
// checks).  Recording costs O(1) and performs no steady-state allocations —
// the ring is pre-allocated at enable() — so chaos and bench runs keep it
// on without perturbing the alloc-counting gates.
//
// On an oracle violation, a crash fault, or an explicit trigger, the
// recorder dumps the last-N events as a versioned post-mortem JSONL
// artifact ({"type":"postmortem",...} header followed by {"type":"fr",...}
// records, oldest first) that tools/trace_inspect renders.
//
// Like the rest of the telemetry plane this is a pure observer: it draws no
// randomness and schedules nothing, so trace digests are byte-identical
// with the recorder on or off.  Recording is single-threaded (fed by the
// deterministic simulator loop).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace rtpb::telemetry {

enum class FlightKind : std::uint8_t {
  kRoleChange,     ///< arg: 1 = promoted to primary, 0 = stepped down
  kEpoch,          ///< epoch adopted (field `epoch`)
  kUpdateSend,     ///< arg: 1 = retransmission
  kUpdateBatch,    ///< arg: entries coalesced in the batch frame
  kUpdateApply,    ///< backup applied an update
  kAck,            ///< arg: acking peer node
  kRetransmitReq,  ///< backup nacked a missing version (arg: blamed span ok)
  kShed,           ///< staged update shed under overload
  kQosDowngrade,   ///< window downgrade decided / received
  kQosRestore,     ///< window restore decided / received
  kCrash,          ///< node crash fault (triggers a dump)
  kOracleCheck,    ///< periodic oracle sweep (arg: violations so far)
  kViolation,      ///< oracle violation (label: oracle; triggers a dump)
  kTrigger,        ///< explicit dump trigger
};

[[nodiscard]] const char* flight_kind_name(FlightKind k);

/// One ring slot.  Plain data, no owned memory: `label` must point at a
/// string literal (static storage) or be null.
struct FlightRecord {
  TimePoint at{};
  std::uint64_t span = 0;    ///< causal span, 0 = none
  std::uint64_t object = 0;
  std::uint64_t version = 0;
  std::uint64_t epoch = 0;
  std::int64_t arg = 0;      ///< kind-specific scalar (see FlightKind)
  const char* label = nullptr;  ///< optional static-string annotation
  std::uint32_t node = 0;
  FlightKind kind = FlightKind::kRoleChange;
};

class FlightRecorder {
 public:
  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Pre-allocate the ring and start recording.  The one allocation
  /// happens here; record() never allocates.
  void enable(std::size_t capacity = 8192);
  void disable() { enabled_ = false; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// O(1): copy the record into the ring, overwriting the oldest slot
  /// once full.  No-op when disabled.
  void record(const FlightRecord& r) {
    if (!enabled_) return;
    ring_[head_] = r;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (size_ < ring_.size()) {
      ++size_;
    } else {
      ++overwritten_;
    }
    ++recorded_;
  }

  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t overwritten() const { return overwritten_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

  /// Retained records, oldest first.
  [[nodiscard]] std::vector<FlightRecord> snapshot() const;

  /// Where trigger_dump() writes the post-mortem artifact.  Empty (the
  /// default) means triggers are recorded in the ring but nothing is
  /// written to disk.
  void set_dump_path(std::string path) { dump_path_ = std::move(path); }

  /// Dump the retained ring as a versioned post-mortem artifact to the
  /// configured path.  Only the *first* trigger writes (the events nearest
  /// the first fault are the interesting ones); later triggers are
  /// recorded in the ring but do not overwrite the artifact.  Returns true
  /// if the artifact was written by this call.
  bool trigger_dump(const std::string& reason, TimePoint at);
  [[nodiscard]] bool dumped() const { return dumped_; }
  /// Reason of the trigger that wrote the artifact; empty if none did.
  [[nodiscard]] const std::string& dump_reason() const { return dump_reason_; }

  /// Serialise the retained ring as post-mortem JSONL to `os`.
  void dump(std::ostream& os, const std::string& reason, TimePoint at) const;

  /// Forget recorded events and dump state; keeps enablement + capacity.
  void clear();

 private:
  bool enabled_ = false;
  bool dumped_ = false;
  std::size_t head_ = 0;  ///< next slot to write
  std::size_t size_ = 0;  ///< retained records
  std::uint64_t recorded_ = 0;
  std::uint64_t overwritten_ = 0;
  std::vector<FlightRecord> ring_;
  std::string dump_path_;
  std::string dump_reason_;
};

}  // namespace rtpb::telemetry
