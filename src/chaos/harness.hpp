// The chaos harness proper: run one seed (or a sweep of seeds) through a
// full RtpbService with a generated fault schedule, continuously checked
// by the invariant oracles, and report a bit-reproducible trace digest.
//
// FoundationDB-style deterministic simulation testing: the seed is the
// whole experiment.  A failing seed prints a ready-to-paste FaultPlan
// reproducer; re-running the seed replays the identical trajectory, byte
// for byte, which the determinism regression test asserts via the digest.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "chaos/oracles.hpp"
#include "chaos/schedule.hpp"

namespace rtpb::chaos {

/// Everything one seed produced.  Two runs of the same seed must compare
/// equal on every field (the determinism regression).
struct SeedReport {
  std::uint64_t seed = 0;
  std::uint64_t trace_digest = 0;   ///< FNV-1a over the full event trace
  std::uint64_t trace_events = 0;   ///< events folded into the digest
  std::uint64_t sim_events = 0;     ///< simulator events fired

  std::vector<OracleViolation> violations;  ///< capped; count below is not
  std::uint64_t violation_count = 0;
  std::uint64_t oracle_checks = 0;
  std::vector<std::string> fired;  ///< fault-plan actions that fired, in order

  std::size_t objects_offered = 0;
  std::size_t objects_admitted = 0;
  std::uint64_t client_writes = 0;
  std::uint64_t updates_applied = 0;      ///< summed over replicas
  std::uint64_t epoch_rejections = 0;     ///< stale-epoch messages fenced, all replicas
  std::uint64_t cross_epoch_applies = 0;  ///< stale-epoch updates applied (want 0)
  double avg_max_distance_ms = 0.0;
  double total_inconsistency_ms = 0.0;
  std::uint64_t inconsistency_intervals = 0;

  // Graceful-degradation activity, summed over replicas.
  std::uint64_t updates_shed = 0;        ///< staged updates dropped by slack shedding
  std::uint64_t qos_downgrades = 0;      ///< ConstraintDowngrade notices sent
  std::uint64_t qos_restores = 0;        ///< ConstraintRestore notices sent
  std::uint64_t transfer_give_ups = 0;   ///< state-transfer retry caps hit

  // Durability / crash-recovery activity, summed over replicas (zero
  // unless ChaosOptions::enable_crash_restart).
  std::uint64_t recoveries = 0;            ///< successful crash-restarts
  std::uint64_t recovery_lost = 0;         ///< acked updates lost (want 0)
  std::uint64_t resync_deltas = 0;         ///< incremental rejoins served
  std::uint64_t resync_fulls = 0;          ///< full-transfer fallbacks

  // Telemetry (zero / empty unless ChaosOptions::telemetry).
  std::uint64_t spans_started = 0;
  std::uint64_t spans_violated = 0;
  std::uint64_t telemetry_events = 0;  ///< Hub events recorded, evicted ones included
  std::string metrics_json;  ///< registry snapshot

  // Flight recorder / health feed (zero / empty unless enabled).
  std::uint64_t flight_events = 0;     ///< records captured by the ring
  bool postmortem_written = false;     ///< a post-mortem artifact was dumped
  std::string postmortem_reason;       ///< trigger that wrote it
  std::uint64_t health_snapshots = 0;  ///< health JSONL lines emitted

  /// Ready-to-paste FaultPlan reproducer (filled when violations > 0).
  std::string reproducer;

  [[nodiscard]] bool ok() const { return violation_count == 0; }
  /// One-line summary for sweep output.
  [[nodiscard]] std::string summary() const;
};

/// Run a single chaos seed to completion.  Deterministic.
[[nodiscard]] SeedReport run_seed(std::uint64_t seed, const ChaosOptions& opts);

struct SweepResult {
  std::size_t seeds_run = 0;
  std::vector<SeedReport> failures;  ///< reports of seeds with violations
  std::uint64_t total_checks = 0;
  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Run seeds [first_seed, first_seed + count).  If `progress` is non-null,
/// prints one line per seed and a reproducer for every failure.
[[nodiscard]] SweepResult run_sweep(std::uint64_t first_seed, std::size_t count,
                                    const ChaosOptions& opts,
                                    std::ostream* progress = nullptr);

}  // namespace rtpb::chaos
