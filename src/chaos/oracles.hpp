// Invariant oracles evaluated continuously while a chaos scenario runs.
//
// The monitor samples the service on a periodic simulator event and checks
// the temporal-consistency guarantees the paper proves, gated by the
// schedule's declared fault epochs (dense-time model checking in spirit:
// every explored trajectory is judged, not just the end state):
//
//   staleness-window     while a primary is up and no fault epoch is open,
//                        no admitted object's primary–backup distance may
//                        exceed its negotiated window δ_i
//   inconsistency-epoch  a window-violation interval may only *open*
//                        inside a declared fault epoch
//   exactly-one-primary  outside fault epochs (i.e. once failover has
//                        settled), exactly one live replica claims the
//                        primary role — zero means failover never
//                        happened, two means split brain
//   monotone-versions    object versions at every replica never decrease
//   cross-epoch-apply    no replica ever applies an update minted under an
//                        older epoch than one it has already accepted —
//                        epoch fencing's core guarantee.  Unconditional:
//                        not even a declared fault epoch excuses it.
//   durable-recovery     no client-acked update may be lost across a
//                        crash-restart: every version a replica held when
//                        it died must be present (or newer) in the image
//                        it recovers from WAL + checkpoint.  Unconditional
//                        like cross-epoch-apply — a declared crash epoch
//                        excuses staleness during the outage, never a
//                        durability hole.
//   no-silent-violation  graceful degradation's contract: when overload
//                        (not message loss or a crash) pushes an object out
//                        of its window, the primary must have renegotiated
//                        — the object is currently downgraded, or a QoS
//                        notice preceded the violation.  Judged whenever no
//                        crash/loss epoch is open (overload epochs do NOT
//                        excuse it: they starve messages rather than break
//                        them, and shedding + renegotiation exist precisely
//                        to keep the resulting violations announced).
//
// The monitor is passive: it draws no randomness and only reads state, so
// attaching it cannot change what the simulation does (the violations it
// folds into the trace digest are themselves deterministic).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chaos/schedule.hpp"
#include "core/service.hpp"
#include "telemetry/facts.hpp"

namespace rtpb::chaos {

/// What the monitor reports: one violation fact per oracle, then the
/// periodic sweep.
enum class OracleFact : std::uint8_t {
  kStalenessWindow, kInconsistencyEpoch, kExactlyOnePrimary, kMonotoneVersions,
  kCrossEpochApply, kDurableRecovery, kNoSilentViolation,
  kCheck,
  kCount
};

/// A violation counts on chaos.violations.<oracle>, is the Hub event
/// violation:<oracle> (its detail an interned text in `a`, its span the
/// guilty update) and feeds the trace digest; a sweep is the event
/// oracle-check, its value the violations so far.  Both are post-mortem
/// events.
constexpr telemetry::FactSinks<OracleFact> fact_sinks(OracleFact f) {
  const auto oracle = [](const char* counter, const char* event) {
    return telemetry::FactSinks<OracleFact>{
        .counter = counter, .event = event, .digest = true, .text = true, .postmortem = true};
  };
  switch (f) {
    case OracleFact::kStalenessWindow:
      return oracle("chaos.violations.staleness-window", "violation:staleness-window");
    case OracleFact::kInconsistencyEpoch:
      return oracle("chaos.violations.inconsistency-epoch", "violation:inconsistency-epoch");
    case OracleFact::kExactlyOnePrimary:
      return oracle("chaos.violations.exactly-one-primary", "violation:exactly-one-primary");
    case OracleFact::kMonotoneVersions:
      return oracle("chaos.violations.monotone-versions", "violation:monotone-versions");
    case OracleFact::kCrossEpochApply:
      return oracle("chaos.violations.cross-epoch-apply", "violation:cross-epoch-apply");
    case OracleFact::kDurableRecovery:
      return oracle("chaos.violations.durable-recovery", "violation:durable-recovery");
    case OracleFact::kNoSilentViolation:
      return oracle("chaos.violations.no-silent-violation", "violation:no-silent-violation");
    case OracleFact::kCheck: return {.event = "oracle-check", .postmortem = true};
    case OracleFact::kCount: break;
  }
  return {};
}

/// The oracle a violation fact names: its event name after "violation:".
constexpr const char* oracle_name(OracleFact f) {
  return telemetry::kFactSinks<OracleFact>[static_cast<std::size_t>(f)].event +
         sizeof("violation:") - 1;
}

struct OracleViolation {
  TimePoint at{};
  std::string oracle;  ///< which invariant broke, e.g. "staleness-window"
  std::string detail;
};

class OracleMonitor {
 public:
  /// `admitted` are the object ids that passed admission control — only
  /// those carry guarantees.  `epochs` come from declared_epochs().
  OracleMonitor(core::RtpbService& service, std::vector<core::ObjectId> admitted,
                std::vector<FaultEpoch> epochs);

  OracleMonitor(const OracleMonitor&) = delete;
  OracleMonitor& operator=(const OracleMonitor&) = delete;

  /// Begin sampling every `check_period` of virtual time.
  void start(Duration check_period = millis(10));

  /// Declare a fault epoch mid-run.  The explorer calls this when a fault
  /// candidate it chose actually fires — unlike chaos runs, the set of
  /// faults is not known before the trajectory executes.
  void declare_epoch(const FaultEpoch& epoch) { epochs_.push_back(epoch); }

  [[nodiscard]] const std::vector<OracleViolation>& violations() const {
    return violations_;
  }
  /// Total violations observed (violations() is capped; this is not).
  [[nodiscard]] std::uint64_t violation_count() const;
  [[nodiscard]] std::uint64_t checks() const { return facts_.count(OracleFact::kCheck); }
  [[nodiscard]] bool ok() const { return violation_count() == 0; }

  [[nodiscard]] bool in_fault_epoch(TimePoint t) const;
  /// True when an epoch caused by message-breaking faults (loss, crash,
  /// partition, …) is open at `t`.  Overload epochs are excluded: they are
  /// the no-silent-violation oracle's jurisdiction, not an excuse.
  [[nodiscard]] bool in_disruptive_epoch(TimePoint t) const;

 private:
  static constexpr std::size_t kMaxStored = 64;
  /// Unannounced violating samples an object may accumulate before the
  /// no-silent-violation oracle reports.  Cumulative, not consecutive:
  /// overload violations flap with every applied update (open a few ms,
  /// close, reopen), and a run of short silent excursions is exactly as
  /// silent as one long one.  The budget gives the 10 ms QoS tick a few
  /// rounds to catch a between-samples window crossing; a notice resets it.
  static constexpr std::uint32_t kSilentSampleBudget = 5;
  /// How recent a downgrade/restore notice counts as "preceding" a
  /// violation once the object is no longer actively downgraded.
  static constexpr Duration kNoticeGrace = millis(500);

  void check();
  /// Record a violation of `oracle`, then trigger the post-mortem.
  /// `span` (when not kNoSpan and telemetry is on) names the guilty
  /// update: the newest span of the object that broke the invariant, so
  /// traces show which update's journey went wrong.
  void report(TimePoint now, OracleFact oracle, std::string detail,
              telemetry::SpanId span = telemetry::kNoSpan);

  core::RtpbService& service_;
  std::vector<core::ObjectId> admitted_;
  std::vector<FaultEpoch> epochs_;
  std::unique_ptr<sim::PeriodicTimer> timer_;

  std::vector<OracleViolation> violations_;
  telemetry::Facts<OracleFact> facts_;  ///< on track "oracle"

  /// (replica index, object) → last seen version, for monotonicity.
  std::map<std::pair<std::size_t, core::ObjectId>, std::uint64_t> last_version_;
  /// Per-object oracle state, parallel to admitted_.
  struct ObjectWatch {
    /// Last sampled violation state (edge detection).
    bool was_violating = false;
    /// Already reported stale (one report per excursion, not per sample).
    bool stale_reported = false;
    /// Already reported by no-silent-violation.
    bool silent_reported = false;
    /// Unannounced violating samples accumulated (no-silent-violation
    /// pending state; reset by a QoS notice).
    std::uint32_t silent_samples = 0;
  };
  std::vector<ObjectWatch> watch_;
  bool primary_count_reported_ = false;
  /// Last seen sum of cross_epoch_applies() over replicas (edge detection).
  std::uint64_t last_cross_epoch_applies_ = 0;
  /// Last seen sum of recovery_lost_updates() over replicas (edge detection).
  std::uint64_t last_recovery_lost_ = 0;
};

}  // namespace rtpb::chaos
