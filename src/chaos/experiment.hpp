// One checked run of the replication service: the service, the objects
// admission accepted, the fault plan, the oracle monitor and the optional
// health feed, with the observers (telemetry + SLO, flight recorder,
// post-mortem, health feed, metrics, Chrome and JSONL exports) attached.
//
// Every checked run is an Experiment: a classic chaos seed (run_seed), one
// shard of a parallel seed (psim::run_parallel_seed) and one explorer
// trajectory.  A parallel shard therefore is a classic run of its shard
// seed by construction, and a new oracle or observer is wired once.
//
// The setup steps run in one fixed order, which every trace digest
// depends on: enable the trace digest (seed runs only) → hub / flight
// recorder → start the service → register the workload → add its
// constraints → fill the fault plan (schedule, shard storms, torn tail) →
// arm it → start the monitor → start the health feed.  The caller then
// advances the simulator (run_for, psim windows or the explorer's choice
// policy) and calls finish(), then report().
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/oracles.hpp"
#include "chaos/schedule.hpp"
#include "core/faults.hpp"
#include "core/health.hpp"
#include "core/service.hpp"

namespace rtpb::chaos {

/// Everything one seed produced.  Two runs of the same seed must compare
/// equal on every field (the determinism regression).
struct SeedReport {
  std::uint64_t seed = 0;
  std::uint64_t trace_digest = 0;   ///< the run's telemetry::Digest
  std::uint64_t trace_events = 0;   ///< facts folded into the digest
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

  // Telemetry (zero / empty unless Observers::telemetry).
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

class Experiment {
 public:
  /// Chaos seed `seed` under `opts`, armed and monitored, with opts' own
  /// observers attached: the schedule, workload, fault plan and declared
  /// epochs are pure functions of (seed, opts).
  Experiment(std::uint64_t seed, const ChaosOptions& opts);
  /// A started service built from `params`, nothing admitted or armed:
  /// the caller admits its objects, fills plan() and calls arm().  The
  /// trace digest stays off: the state hash, not the trace digest,
  /// identifies the run.
  Experiment(const core::ServiceParams& params, const Observers& observe);

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Offer `objects` to admission control (admitted() keeps the accepted
  /// ids), then add `constraints` (rejection is a legal outcome).
  void admit(const std::vector<core::ObjectSpec>& objects,
             const std::vector<core::InterObjectConstraint>& constraints = {});
  /// Arm the plan, start the oracles with the declared `epochs`, then the
  /// health feed.
  void arm(std::vector<FaultEpoch> epochs);
  /// End the run: stop the health feed, finish the service, dump the
  /// flight recorder if nothing tripped it and write the exports.
  void finish();
  /// The run's outcome; call after finish().  The seed and the
  /// reproducer are the caller's to fill.
  [[nodiscard]] SeedReport report();

  [[nodiscard]] core::RtpbService& service() { return service_; }
  [[nodiscard]] core::FaultPlan& plan() { return plan_; }
  [[nodiscard]] OracleMonitor& monitor() { return *monitor_; }
  [[nodiscard]] const std::vector<core::ObjectId>& admitted() const { return admitted_; }

 private:
  Experiment(std::uint64_t seed, const ChaosSchedule& schedule, const ChaosOptions& opts);
  void open();

  Observers observe_;
  core::RtpbService service_;
  std::vector<core::ObjectId> admitted_;
  std::size_t offered_ = 0;
  core::FaultPlan plan_;
  std::optional<OracleMonitor> monitor_;
  std::optional<std::ofstream> health_out_;  ///< opened only for a health feed
  std::unique_ptr<core::HealthFeed> health_;
};

}  // namespace rtpb::chaos
