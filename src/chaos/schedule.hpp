// Seeded random fault schedules for the deterministic chaos harness.
//
// A ChaosSchedule is a timeline of typed fault events (loss storms, link
// degradation, duplication/reorder/burst-loss/corruption bursts, crashes,
// standby recruitment) generated from a single seed.  Every random choice
// is quantised (1 ms times, 0.01 probabilities) so that rendering the
// schedule as source code reproduces it exactly, and each fault family
// draws from its own derive_stream_seed() sub-stream, so toggling one
// family off cannot shift what another family generates.
//
// The schedule also *declares* its fault epochs: the intervals during
// which the temporal-consistency oracles must tolerate window violations.
// Everything outside a declared epoch is fair game for the oracles — that
// asymmetry is what turns a random soak into a checked experiment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/faults.hpp"
#include "core/types.hpp"
#include "net/network.hpp"
#include "util/time.hpp"

namespace rtpb::chaos {

/// An interval during which oracles must tolerate inconsistency (the
/// underlying fault interval widened by the settle/failover grace).
struct FaultEpoch {
  TimePoint from{};
  TimePoint until{};
  core::FaultKind cause{};
};

/// The observers of one checked run (see chaos::Experiment).  None of
/// them changes a trace digest or an oracle verdict.
struct Observers {
  /// Collect causal spans / metrics during the run (also enables the
  /// temporal-slack SLO monitor, exported as core.slo.*).
  bool telemetry = false;
  /// When non-empty (and telemetry is on), the run writes a Chrome
  /// trace-event JSON / JSONL event stream there.
  std::string trace_json_path;
  std::string trace_jsonl_path;
  /// Keep the post-mortem (implied by a non-empty postmortem_path): the
  /// Hub's event ring, alone unless telemetry is on.
  bool flight_recorder = false;
  /// Post-mortem artifact path.  The first oracle violation or crash fault
  /// writes the ring's last Hub::kPostmortemEvents events there; if the
  /// run ends untriggered they are written with reason "end-of-run".
  std::string postmortem_path;
  /// When non-empty, a HealthFeed emits per-replica JSONL health snapshots
  /// there every health_period (rendered by tools/rtpb_top).
  std::string health_jsonl_path;
  Duration health_period = millis(100);
  /// When non-empty (and telemetry is on), write the final registry
  /// snapshot JSON there (the --metrics-out flag).
  std::string metrics_json_path;
};

/// A chaos seed's experiment: schedule and workload knobs, plus the
/// observers a classic run attaches.
struct ChaosOptions : Observers {
  Duration duration = seconds(20);  ///< virtual run length
  /// Grace appended after a network fault epoch before oracles re-arm
  /// (lost updates are healed by the next transmission or watchdog nack).
  Duration settle = seconds(1);
  /// Grace after a crash (and after standby recruitment) covering failure
  /// detection, promotion, state transfer and catch-up.  Independent of
  /// the service config on purpose: a sabotaged failover (the harness's
  /// canary) must NOT stretch the declared epoch.
  Duration failover_grace = seconds(2);
  double intensity = 1.0;  ///< scales how many fault events are generated

  bool enable_loss_storms = true;   ///< update-stream loss (detector-safe)
  bool enable_link_faults = true;   ///< degradation/dup/reorder/burst/corrupt
  bool enable_crashes = true;       ///< crash + failover + recruitment
  /// Overload family (off by default): cpu_spike / throttle_bandwidth /
  /// inflate_latency.  These do not break messages, they starve them —
  /// the graceful-degradation machinery (shedding, QoS renegotiation,
  /// adaptive timeouts) is what keeps the resulting violations announced.
  bool enable_overload = false;
  double crash_probability = 0.6;   ///< chance a run includes a crash
  double crash_backup_bias = 0.3;   ///< of crashes, fraction hitting the backup

  /// Partition the primary from its successor instead of crashing anyone
  /// (replaces the crash family: the two scenarios contend for the same
  /// failover machinery and would double-promote).  The old primary keeps
  /// running — split brain — which epoch fencing must resolve, so the
  /// scenario needs `backups >= 2`: the surviving backup is the deposed
  /// primary's only path to learning of the new epoch.  Ignored when
  /// backups < 2 or the run is too short for a failover arc.
  bool enable_partition = false;

  /// Crash–restart family (off by default): one crash of a durable replica
  /// followed by a power-up from its WAL + checkpoint and an incremental
  /// rejoin.  Turning it on makes every chaos::Experiment (classic seed or
  /// parallel shard) build its service with durable replicas — WAL
  /// appends are synchronous and draw no randomness, so a seed whose
  /// schedule happens to contain no crash-restart event keeps its digest.
  /// Replaces the plain crash family (same failover machinery), like
  /// enable_partition.
  bool enable_crash_restart = false;
  /// The torn-write sabotage: shear this many bytes off the downed
  /// replica's WAL before it restarts (0 = off).
  std::size_t torn_tail_bytes = 0;

  std::size_t objects = 4;  ///< workload size offered to admission

  /// Shard the workload: objects are placed by the core::shard_of hash and
  /// the generator adds shard-scoped loss storms (kShardLossStorm) that
  /// hit only one shard's update streams — per-object loss overrides, so a
  /// fault in one shard cannot perturb another shard's traffic.  At the
  /// default of 1 the stream is never drawn from and no overrides are
  /// installed: digests are byte-identical to a build without sharding
  /// (the shard digest-purity regression pins this).
  std::size_t shards = 1;

  /// Number of backups in the replication chain (1 = the paper's classic
  /// primary/backup pair).  Backup 0 is the designated successor.
  std::size_t backups = 1;

  /// Service configuration for chaos runs.  Defaults are hardened for an
  /// adversarial network: variance-aware admission (Lemma 2) so CPU phase
  /// variance cannot cause out-of-model violations, and a patient failure
  /// detector (12 misses at 50 ms pings ≈ 600 ms detection) so declared
  /// link-fault probabilities cannot plausibly starve it into a false —
  /// split-brain — failover.
  core::ServiceConfig config = hardened_config();
  net::LinkParams link = default_link();

  [[nodiscard]] static core::ServiceConfig hardened_config();
  [[nodiscard]] static net::LinkParams default_link();
};

struct ChaosSchedule {
  std::uint64_t seed = 0;          ///< the chaos seed it was generated from
  std::uint64_t service_seed = 0;  ///< derived seed for ServiceParams
  std::vector<core::Fault> events;  ///< sorted by `at`
};

/// Sub-stream numbers of the chaos seed (derive_stream_seed streams).
/// Fixed constants: renumbering breaks seed reproducibility across
/// versions, so append only.
enum ChaosStream : std::uint64_t {
  kStreamService = 1,   ///< ServiceParams::seed for the simulation itself
  kStreamWorkload = 2,  ///< object specs and inter-object constraints
  kStreamLoss = 3,      ///< update-stream loss storms
  kStreamLink = 4,      ///< link-level fault bursts
  kStreamCrash = 5,      ///< crash / recruitment scenario
  kStreamPartition = 6,  ///< split-brain partition scenario
  kStreamOverload = 7,   ///< cpu/bandwidth/latency overload bursts
  kStreamShard = 8,      ///< shard-scoped loss storms (shards > 1 only)
  kStreamParallel = 9,   ///< per-shard chaos seeds of the parallel engine
  kStreamCrashRestart = 10,  ///< crash–restart scenario (durable replicas)
};

/// Generate the fault schedule for `seed`.  Pure function of (seed, opts).
[[nodiscard]] ChaosSchedule generate_schedule(std::uint64_t seed, const ChaosOptions& opts);

/// The interval around fault `f` during which oracles must tolerate
/// violations: its own interval widened by `settle` (network and overload
/// faults) or by `failover_grace` (crashes, restarts, recruitment; twice
/// for a partition's split-brain arc).  A crash's epoch runs until
/// `recovered`, the recruitment that replaces the victim, plus the grace:
/// with no backup alive (or no primary, mid-failover) the distance metric
/// cannot recover, so the whole crash→standby→catch-up arc is one epoch.
[[nodiscard]] FaultEpoch declared_epoch(const core::Fault& f, TimePoint recovered,
                                        Duration settle, Duration failover_grace);

/// The declared epoch of every event of the schedule (a crash recovers at
/// the schedule's standby recruitment).
[[nodiscard]] std::vector<FaultEpoch> declared_epochs(const ChaosSchedule& schedule,
                                                      const ChaosOptions& opts);

/// Generate the chaos workload for `seed`: object specs (admission may
/// still reject some) plus occasional inter-object constraints.
struct Workload {
  std::vector<core::ObjectSpec> objects;
  std::vector<core::InterObjectConstraint> constraints;
};
[[nodiscard]] Workload generate_workload(std::uint64_t seed, const ChaosOptions& opts);

/// Render the schedule as a ready-to-paste C++ FaultPlan reproducer.
[[nodiscard]] std::string render_reproducer(const ChaosSchedule& schedule,
                                            const ChaosOptions& opts);

}  // namespace rtpb::chaos
