// Object model and service-level configuration for the RTPB replication
// service.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "sched/cpu.hpp"
#include "util/time.hpp"

namespace rtpb::core {

using ObjectId = std::uint32_t;
inline constexpr ObjectId kInvalidObject = 0xFFFFFFFF;

/// What a client declares when registering an object with the service
/// (paper §4.2): its update period, execution costs, and the external
/// temporal constraints at the primary and at the backup.
struct ObjectSpec {
  ObjectId id = kInvalidObject;
  std::string name;
  std::uint32_t size_bytes = 64;   ///< payload size of one update

  Duration client_period{};        ///< p_i: client sensing/update period
  Duration client_exec{};          ///< e_i: cost of one client update job
  Duration update_exec{};          ///< e'_i: cost of one backup-transmission job

  Duration delta_primary{};        ///< δ_iP: external constraint at the primary
  Duration delta_backup{};         ///< δ_iB: external constraint at the backup

  /// Window of inconsistency between primary and backup: δ_i = δ_iB − δ_iP.
  [[nodiscard]] Duration window() const { return delta_backup - delta_primary; }

  /// Encoded field order (util/codec.hpp), shared by the wire and the WAL.
  template <class S> static auto tie(S& s) {
    return std::tie(s.id, s.name, s.size_bytes, s.client_period, s.client_exec, s.update_exec,
                    s.delta_primary, s.delta_backup);
  }
};

/// Inter-object temporal constraint δ_ij between two registered objects
/// (paper §3): |T_j(t) − T_i(t)| ≤ δ_ij must hold at both sites.
struct InterObjectConstraint {
  ObjectId first = kInvalidObject;
  ObjectId second = kInvalidObject;
  Duration delta{};
  template <class S> static auto tie(S& s) { return std::tie(s.first, s.second, s.delta); }
};

/// Placement of an object among `shards` (≥ 1) shards or groups: FNV-1a
/// over the id's four little-endian bytes, modulo `shards`.  No seed
/// enters the hash, so an id lands on the same shard in every process,
/// run and simulation seed, whatever the registration order.
[[nodiscard]] constexpr std::uint32_t shard_of(ObjectId id, std::uint32_t shards) {
  std::uint64_t h = 14695981039346656037ULL;
  for (int i = 0; i < 4; ++i) {
    h ^= (id >> (8 * i)) & 0xFFu;
    h *= 1099511628211ULL;
  }
  return static_cast<std::uint32_t>(h % shards);
}

/// How the primary schedules update transmissions to the backup (§4.3,
/// §5.3).  Normal derives each period from the object's window; compressed
/// sends as often as spare CPU capacity allows; coupled is the
/// window-consistent baseline (Mehra et al.) the paper contrasts with —
/// every client write triggers a transmission job, so backup traffic
/// scales with the write rate instead of the window.
enum class UpdateScheduling { kNormal, kCompressed, kCoupled };

/// Admission-control outcomes, exposed so rejected clients can negotiate
/// an alternative quality of service (paper §4.2).
enum class AdmissionError {
  kInvalidSpec,            ///< malformed object parameters
  kPeriodExceedsDelta,     ///< p_i > δ_iP: client updates too slow for the constraint
  kWindowTooSmall,         ///< δ_iB − δ_iP ≤ ℓ: cannot out-run the network delay
  kUnschedulable,          ///< update task set fails the RM schedulability test
  kInterObjectViolation,   ///< δ_ij constraint unsatisfiable with these periods
  kUnknownObject,          ///< inter-object constraint names an unregistered object
  kDuplicate,              ///< object id already registered
};

[[nodiscard]] const char* admission_error_name(AdmissionError e);

/// Service-level configuration shared by primary and backup.
struct ServiceConfig {
  sched::Policy cpu_policy = sched::Policy::kRateMonotonic;
  UpdateScheduling update_scheduling = UpdateScheduling::kNormal;
  /// Slack factor applied to the §4.3 transmission period: period =
  /// (δ_i − ℓ) / slack_factor.  The paper uses 2 to ride out one loss.
  std::int64_t slack_factor = 2;
  /// Experiment knob: force every object's transmission period to this
  /// value (bypasses the window formula; still subject to inter-object
  /// tightening).  Zero disables.  Used by the consistency-frontier bench
  /// to sweep r_i across the Theorem 4/5 boundary.
  Duration update_period_override{};
  /// Extension: additionally cap each transmission period with Lemma 2's
  /// sufficient condition r ≤ (δ_B + e + e' − ℓ)/2 − p, which absorbs the
  /// worst-case phase variance of both tasks.  The paper's §4.2 admission
  /// (default, false) ignores v/v' and can suffer brief window violations
  /// when the CPU runs near its admission bound — see
  /// bench/abl_variance_admission.
  bool variance_aware_admission = false;
  /// Target CPU utilisation for compressed scheduling's update tasks.
  double compressed_target_utilization = 0.85;
  /// Probability that an UPDATE (or retransmission) from the primary is
  /// dropped before reaching the wire.  This reproduces the paper's §5
  /// methodology: loss is injected on the update stream while control
  /// traffic (heartbeats, registration) still flows, so the service is
  /// degraded, not partitioned.  Use net::LinkParams::loss_probability for
  /// genuine link faults instead.
  double update_loss_probability = 0.0;
  /// Backup acknowledges every update (ablation A1); default off per §4.3.
  bool ack_every_update = false;
  /// Run RTPB above FRAGLITE so updates larger than the link MTU are
  /// fragmented and reassembled (x-kernel BLAST's role).  Disabling it
  /// makes >MTU objects silently unreplicable — see the object-size
  /// supplementary experiment.
  bool enable_fragmentation = true;
  /// Payload bytes per fragment (header overhead rides on top; keep below
  /// the link MTU minus ~50 bytes of stacked headers).
  std::size_t fragment_payload = 1400;
  /// Coalesce update transmissions that fall due within one 2 ms batch
  /// window of each other into one kUpdateBatch frame per peer (see
  /// ReplicaServer's kUpdateBatchWindow): the frame tag, epoch, UDPLITE
  /// checksum and per-frame simulation events are paid once per window
  /// instead of once per object.  Retransmissions and targeted
  /// (lagging-peer) sends always go out as single kUpdate frames.
  /// NOTE: toggling this changes the wire byte stream, so chaos trace
  /// digests shift vs pre-batch builds (same-seed reproducibility is
  /// unaffected) — same precedent as the epoch-fencing field addition.
  bool batch_updates = true;

  // Failure detection (§4.4).
  Duration ping_period = millis(100);
  /// Per-ping ack timeout.  Zero means "derive from the link": the server
  /// uses clamp(4ℓ, 5 ms, ping_period), where ℓ is the link delay bound
  /// for a full frame, so small-ℓ configs fail over faster and large-ℓ
  /// configs stop false-suspecting.  A non-zero value pins the timeout.
  Duration ping_ack_timeout{};
  std::uint32_t ping_max_misses = 3;

  /// Backup requests retransmission after watchdog_factor × r_i without an
  /// update for an object (§4.3 backup-triggered retransmission).
  std::int64_t watchdog_factor = 3;

  bool admission_control_enabled = true;

  /// Epoch (incarnation) fencing: every RTPB message carries the sender's
  /// replication epoch, minted at promote(); receivers reject traffic from
  /// lower epochs and a deposed primary that learns of a higher epoch
  /// steps down.  Disabling this restores the pre-fencing split-brain
  /// behaviour (a deposed primary's stale updates are applied) — used by
  /// the chaos `split-brain` sabotage self-test to prove the
  /// no-cross-epoch-apply oracle catches it.
  bool epoch_fencing = true;

  // Graceful degradation under overload (PR 5).

  /// Master switch for the DegradationController: overload detection from
  /// ack-lag EWMAs / staged-queue depth / missed transmission windows,
  /// slack-aware shedding of batched updates, and runtime QoS
  /// renegotiation (kConstraintDowngrade / kConstraintRestore).  Turning
  /// this off restores the pre-degradation "violate silently" behaviour —
  /// the chaos `no-shedding` sabotage self-test relies on that to prove
  /// the no-silent-violation oracle catches it.
  bool degradation_enabled = true;
  /// Drive FailureDetector ack timeouts and update-ack deadlines from a
  /// Jacobson-style RTT estimator (SRTT + 4·RTTVAR) instead of the fixed
  /// config values.  Estimates are clamped to [derived floor, ping_period].
  bool adaptive_timeouts = true;
  /// Overload trips when the smoothed ack RTT exceeds a fixed multiple of
  /// the link's no-queueing baseline (2ℓ), or when the staged send queue
  /// holds more than `overload_queue_depth` updates, or when a
  /// transmission window was missed.  Hysteresis: the controller must
  /// observe `degrade_restore_hold` of calm before restoring original
  /// windows.
  std::size_t overload_queue_depth = 16;
  /// Minimum calm time before a downgraded object's original window is
  /// restored (also floored at one failure-detection period so restore can
  /// never flap within a single detector cycle).
  Duration degrade_restore_hold = millis(500);
  /// State-transfer / registration replication retries back off
  /// exponentially (base ping_period × 2, doubled per attempt, seeded
  /// jitter) and give up after this many attempts, reporting the silent
  /// peer as suspected-down instead of retrying forever.
  std::uint32_t transfer_retry_limit = 10;
};

}  // namespace rtpb::core
