#include "chaos/oracles.hpp"

#include <utility>

namespace rtpb::chaos {

OracleMonitor::OracleMonitor(core::RtpbService& service,
                             std::vector<core::ObjectId> admitted,
                             std::vector<FaultEpoch> epochs)
    : service_(service),
      admitted_(std::move(admitted)),
      epochs_(std::move(epochs)),
      facts_("oracle", nullptr, &service_.simulator().telemetry()),
      watch_(admitted_.size()) {}

void OracleMonitor::start(Duration check_period) {
  RTPB_EXPECTS(timer_ == nullptr);
  // Tagged as an observer: the monitor only reads state, so the explorer
  // never branches on its order against same-instant protocol events.
  timer_ = std::make_unique<sim::PeriodicTimer>(service_.simulator(), check_period,
                                                [this] { check(); },
                                                sim::EventTag{sim::kTagObserver, 0, 0});
  timer_->start();
}

bool OracleMonitor::in_fault_epoch(TimePoint t) const {
  for (const FaultEpoch& e : epochs_) {
    if (t >= e.from && t <= e.until) return true;
  }
  return false;
}

namespace {
bool is_overload_kind(core::FaultKind k) {
  return k == core::FaultKind::kCpuSpike || k == core::FaultKind::kThrottleBandwidth ||
         k == core::FaultKind::kInflateLatency;
}
}  // namespace

bool OracleMonitor::in_disruptive_epoch(TimePoint t) const {
  for (const FaultEpoch& e : epochs_) {
    if (t >= e.from && t <= e.until && !is_overload_kind(e.cause)) return true;
  }
  return false;
}

std::uint64_t OracleMonitor::violation_count() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(OracleFact::kCheck); ++i) {
    n += facts_.count(static_cast<OracleFact>(i));
  }
  return n;
}

void OracleMonitor::report(TimePoint now, OracleFact oracle, std::string detail,
                           telemetry::SpanId span) {
  const char* name = telemetry::kFactSinks<OracleFact>[static_cast<std::size_t>(oracle)].label;
  if (violations_.size() < kMaxStored) violations_.push_back({now, name, detail});
  // The violation's flight record (with the guilty span) comes first: the
  // post-mortem's last-N events ending in it are exactly the context an
  // operator wants first.
  facts_.emit(oracle, {.span = span});
  telemetry::Hub& hub = service_.simulator().telemetry();
  if (hub.enabled()) hub.mark_violation(span, name, std::move(detail));
  telemetry::FlightRecorder& fr = hub.flight_recorder();
  if (fr.enabled()) fr.trigger_dump(std::string("oracle:") + name, now);
}

void OracleMonitor::check() {
  const TimePoint now = service_.simulator().now();
  const bool in_epoch = in_fault_epoch(now);

  // Re-evaluate window violations at the sampling instant, not just at the
  // last write/apply.
  service_.metrics().poll(now);

  facts_.emit(OracleFact::kCheck, {.value = static_cast<std::int64_t>(violation_count())});
  telemetry::Hub& hub = service_.simulator().telemetry();
  // Feed the SLO monitor at the sampling instant too: the apply path only
  // observes staleness when an update arrives, so a *lost* update's growing
  // staleness would otherwise never be sampled.
  if (hub.slo().enabled()) {
    for (const core::ObjectId id : admitted_) {
      hub.slo().observe(id, now, service_.metrics().current_distance(id),
                        service_.metrics().window_of(id));
    }
  }

  // exactly-one-primary: outside epochs the cluster must have settled on a
  // single live primary.  Reported once per excursion.
  const std::size_t primaries = service_.primaries_alive();
  if (!in_epoch && primaries != 1) {
    if (!primary_count_reported_) {
      primary_count_reported_ = true;
      report(now, OracleFact::kExactlyOnePrimary,
             std::to_string(primaries) + " live primaries (want exactly 1)");
    }
  } else if (primaries == 1) {
    primary_count_reported_ = false;
  }

  const bool primary_up = primaries >= 1;

  for (std::size_t i = 0; i < admitted_.size(); ++i) {
    const core::ObjectId id = admitted_[i];
    ObjectWatch& w = watch_[i];
    const bool violating = service_.metrics().in_violation(id);
    const bool was = w.was_violating;
    w.was_violating = violating;

    // The update whose journey is implicated: the newest span minted for
    // this object at the primary (the write the backup has not applied).
    const telemetry::SpanId guilty = service_.simulator().telemetry().latest_span(id);

    // inconsistency-epoch: an interval may only OPEN inside an epoch.
    if (violating && !was && !in_epoch) {
      report(now, OracleFact::kInconsistencyEpoch,
             "object " + std::to_string(id) +
                 " opened a violation interval outside any declared fault epoch",
             guilty);
    }

    // staleness-window: with a primary up and no epoch open, the object
    // must be inside its window.  One report per excursion.
    if (violating && primary_up && !in_epoch) {
      if (!w.stale_reported) {
        w.stale_reported = true;
        report(now, OracleFact::kStalenessWindow,
               "object " + std::to_string(id) + " out of window (max distance " +
                   std::to_string(service_.metrics().max_distance(id).millis()) + " ms)",
               guilty);
      }
    } else if (!violating) {
      w.stale_reported = false;
    }

    // no-silent-violation: overload never excuses an *unannounced* window
    // violation.  While no message-breaking epoch is open, a violating
    // object must either be actively downgraded or have received a QoS
    // notice recently.  Silent samples accumulate — violations under
    // overload flap with every applied update, and many short silent
    // excursions are as damning as one long one — until a notice resets
    // the budget or it runs out and the oracle reports.
    if (violating && primary_up && !in_disruptive_epoch(now)) {
      core::ReplicaServer& primary = service_.acting_primary();
      const TimePoint notice = primary.qos_last_notice_at(id);
      const bool announced =
          primary.qos_downgrade_active(id) ||
          (notice > TimePoint::zero() && now - notice <= kNoticeGrace);
      if (announced) {
        w.silent_samples = 0;
      } else if (++w.silent_samples >= kSilentSampleBudget && !w.silent_reported) {
        w.silent_reported = true;
        report(now, OracleFact::kNoSilentViolation,
               "object " + std::to_string(id) +
                   " violated its window with no downgrade notice (distance " +
                   std::to_string(service_.metrics().max_distance(id).millis()) + " ms)",
               guilty);
      }
    }
  }

  // monotone-versions: no replica may ever move an object backwards.
  std::size_t replica_idx = 0;
  service_.for_each_replica([&](const core::ReplicaServer& replica) {
    const std::size_t idx = replica_idx++;
    for (const core::ObjectId id : admitted_) {
      const core::ObjectState* state = replica.peek(id);
      if (state == nullptr) continue;
      auto [it, inserted] = last_version_.try_emplace({idx, id}, state->version);
      if (!inserted) {
        if (state->version < it->second) {
          report(now, OracleFact::kMonotoneVersions,
                 "replica " + std::to_string(idx) + " object " + std::to_string(id) +
                     " went from version " + std::to_string(it->second) + " to " +
                     std::to_string(state->version));
        }
        it->second = state->version;
      }
    }
  });

  // cross-epoch-apply: epoch fencing's core guarantee, checked even inside
  // declared fault epochs — a fault may delay convergence but never
  // licenses applying a deposed primary's updates.
  std::uint64_t cross = 0;
  service_.for_each_replica(
      [&cross](const core::ReplicaServer& r) { cross += r.cross_epoch_applies(); });
  if (cross > last_cross_epoch_applies_) {
    report(now, OracleFact::kCrossEpochApply,
           std::to_string(cross - last_cross_epoch_applies_) +
               " update(s) applied from a deposed epoch");
    last_cross_epoch_applies_ = cross;
  }

  // durable-recovery: checked unconditionally, like cross-epoch-apply.
  // Each replica diffs its recovered image against the versions it held
  // (and had acked) at the instant it died; any shortfall is a durability
  // hole no declared epoch excuses.
  std::uint64_t lost = 0;
  service_.for_each_replica(
      [&lost](const core::ReplicaServer& r) { lost += r.recovery_lost_updates(); });
  if (lost > last_recovery_lost_) {
    report(now, OracleFact::kDurableRecovery,
           std::to_string(lost - last_recovery_lost_) +
               " client-acked update(s) lost across crash recovery");
    last_recovery_lost_ = lost;
  }
}

}  // namespace rtpb::chaos
