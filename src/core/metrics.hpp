// Performability metrics (paper §5):
//   - client response time at the primary,
//   - average maximum primary–backup distance,
//   - duration of backup inconsistency.
//
// Distance semantics.  The distance at time t is the temporal staleness of
// the backup's copy relative to the primary's:
//     d_i(t) = T_i^P(t) − T_i^B(t)
// where both timestamps are expressed in primary (origin) time — T_i^B is
// the write time of the version the backup currently holds.  d_i is a
// step function that changes only at client writes (jumps up) and at
// backup applies (drops), so event-driven tracking captures its extrema
// exactly.  "Average maximum distance" is the per-object maximum of d_i
// averaged over objects, the paper's Figure 8–10 metric.
//
// Inconsistency (Figures 11/12): object i is *inconsistent at the backup*
// while d_i(t) exceeds its window δ_i = δ_iB − δ_iP.  If an update is
// lost, the backup stays inconsistent until the next applied update —
// exactly the paper's description.
#pragma once

#include "core/types.hpp"
#include "util/id_table.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace rtpb::core {

class Metrics {
 public:
  /// -- client response time ------------------------------------------------
  void record_response(Duration d) { response_times_.add(d.millis()); }
  [[nodiscard]] const SampleSet& response_times() const { return response_times_; }

  /// -- primary–backup distance & inconsistency ------------------------------
  /// Declare an object, its window δ_i (for inconsistency judgement) and
  /// its client write period p_i (for excess-distance normalisation).
  void track_object(ObjectId id, Duration window, Duration client_period = Duration::zero());

  /// The primary finished a client update at `ts` (T_i^P advances).
  void on_primary_write(ObjectId id, TimePoint ts);
  /// The backup applied a version whose primary-side timestamp is
  /// `origin_ts`, at backup-local time `now` (T_i^B advances).
  void on_backup_apply(ObjectId id, TimePoint origin_ts, TimePoint now);

  /// Re-evaluate every object's window violation at `now` without waiting
  /// for the next write/apply — the chaos harness's oracle observation
  /// point, so intervals open/close at the sampling instant.
  void poll(TimePoint now);

  /// Close out open violation intervals at end of run (call once before
  /// reading results).
  void finish(TimePoint now);
  /// Forget warm-up history (keeps tracked objects and current state).
  void reset_statistics();

  /// Mean over objects of max_t d_i(t), in ms.  Objects whose backup never
  /// applied anything contribute their full staleness relative to the
  /// primary's newest write.
  [[nodiscard]] double average_max_distance_ms() const;
  /// Like average_max_distance_ms but with each object's intrinsic
  /// one-write-period staleness subtracted: max(0, max d_i − p_i).  This is
  /// the staleness *replication* is responsible for — near zero when no
  /// update is ever lost, growing by one transmission period per
  /// consecutive loss (the paper's Figure 8 quantity).
  [[nodiscard]] double average_max_excess_distance_ms() const;
  /// Mean duration of a window-violation interval across objects, ms.
  [[nodiscard]] double mean_inconsistency_duration_ms() const;
  /// Total time spent out of window, summed over objects.
  [[nodiscard]] Duration total_inconsistency() const;
  [[nodiscard]] std::uint64_t inconsistency_intervals() const;

  /// Per-object introspection (tests).
  [[nodiscard]] Duration max_distance(ObjectId id) const;
  [[nodiscard]] bool in_violation(ObjectId id) const;
  /// Instantaneous d_i = T_i^P − T_i^B (zero until both sites have
  /// written) — the degradation controller's restore guard reads this to
  /// make sure the backup is genuinely caught up before tightening.
  [[nodiscard]] Duration current_distance(ObjectId id) const;
  /// The window currently judged against (tracks QoS downgrades).
  [[nodiscard]] Duration window_of(ObjectId id) const;

 private:
  struct ObjectTrack {
    Duration window{};
    Duration client_period{};
    TimePoint primary_ts{};        ///< latest T_i^P
    TimePoint backup_origin_ts{};  ///< origin of the version the backup holds
    bool primary_written = false;
    bool backup_applied = false;
    Duration max_distance{};
    IntervalRecorder inconsistency;
    void refresh(TimePoint now);
  };
  [[nodiscard]] const ObjectTrack& track(ObjectId id) const;

  SampleSet response_times_;
  IdTable<ObjectId, ObjectTrack> objects_;
};

}  // namespace rtpb::core
