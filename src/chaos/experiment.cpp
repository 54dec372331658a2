#include "chaos/experiment.hpp"

#include <cstdio>
#include <utility>

#include "telemetry/export.hpp"
#include "util/log.hpp"

namespace rtpb::chaos {

namespace {

core::ServiceParams seed_params(const ChaosSchedule& schedule, const ChaosOptions& opts) {
  core::ServiceParams params;
  params.seed = schedule.service_seed;
  params.link = opts.link;
  params.config = opts.config;
  params.backup_count = opts.backups;
  // Durable replicas are required for restart; WAL appends are synchronous
  // and draw no randomness, so this alone never perturbs digests.
  params.durable = opts.enable_crash_restart;
  return params;
}

/// Translate kShardLossStorm events into scripted per-object loss
/// overrides on the acting primary.  Lives here, not in FaultPlan: the
/// override set needs the shard placement and the admitted list.
/// Shard membership is resolved eagerly so the scheduled actions carry
/// plain id lists.
void apply_shard_faults(const ChaosSchedule& schedule, const ChaosOptions& opts,
                        core::RtpbService& service,
                        const std::vector<core::ObjectId>& admitted, core::FaultPlan& plan) {
  if (opts.shards <= 1) return;
  const auto shards = static_cast<std::uint32_t>(opts.shards);
  for (const core::Fault& e : schedule.events) {
    if (e.kind != core::FaultKind::kShardLossStorm) continue;
    std::vector<core::ObjectId> ids;
    for (core::ObjectId id : admitted) {
      if (core::shard_of(id, shards) == e.shard) ids.push_back(id);
    }
    if (ids.empty()) continue;
    char label[96];
    std::snprintf(label, sizeof label, "shard-loss-storm(shard=%u,p=%.2f)", e.shard,
                  e.probability);
    const double p = e.probability;
    plan.at(e.at, label, [&service, ids, p] {
      for (core::ObjectId id : ids) service.acting_primary().set_object_loss_probability(id, p);
    });
    std::snprintf(label, sizeof label, "shard-loss-storm-end(shard=%u)", e.shard);
    plan.at(e.until, label, [&service, ids] {
      for (core::ObjectId id : ids) service.acting_primary().clear_object_loss_probability(id);
    });
  }
}

/// Translate torn_tail_bytes into a tear-wal-tail sabotage action halfway
/// through each crash-restart outage (the replica is down, its WAL is
/// quiescent).  The replica index follows the service's for_each_replica
/// order, which the schedule layer cannot know.
void apply_torn_tail_sabotage(const ChaosSchedule& schedule, const ChaosOptions& opts,
                              core::FaultPlan& plan) {
  if (opts.torn_tail_bytes == 0) return;
  for (const core::Fault& e : schedule.events) {
    if (e.kind != core::FaultKind::kCrashRestartPrimary &&
        e.kind != core::FaultKind::kCrashRestartBackup) {
      continue;
    }
    const std::size_t replica = e.kind == core::FaultKind::kCrashRestartPrimary ? 0 : 1;
    plan.tear_wal_tail(e.at + (e.until - e.at) / 2, replica, opts.torn_tail_bytes);
  }
}

/// Write one export file with `write`, warning (not failing) when `path`
/// cannot be opened.  An empty path writes nothing.
template <typename Write>
void export_to(const std::string& path, const char* what, Write write) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (out) {
    write(out);
  } else {
    RTPB_WARN("chaos", "cannot open %s for %s export", path.c_str(), what);
  }
}

}  // namespace

std::string SeedReport::summary() const {
  char line[192];
  std::snprintf(line, sizeof line,
                "seed %6llu  %s  digest %016llx  admitted %zu/%zu  writes %llu  "
                "applied %llu  faults %zu  violations %llu",
                static_cast<unsigned long long>(seed), ok() ? "ok  " : "FAIL",
                static_cast<unsigned long long>(trace_digest), objects_admitted,
                objects_offered, static_cast<unsigned long long>(client_writes),
                static_cast<unsigned long long>(updates_applied), fired.size(),
                static_cast<unsigned long long>(violation_count));
  return line;
}

Experiment::Experiment(std::uint64_t seed, const ChaosOptions& opts)
    : Experiment(seed, generate_schedule(seed, opts), opts) {}

Experiment::Experiment(std::uint64_t seed, const ChaosSchedule& schedule,
                       const ChaosOptions& opts)
    : observe_(opts), service_(seed_params(schedule, opts)), plan_(service_) {
  service_.simulator().telemetry().digest().enable();
  open();
  const Workload workload = generate_workload(seed, opts);
  admit(workload.objects, workload.constraints);
  for (const core::Fault& e : schedule.events) {
    if (e.kind != core::FaultKind::kShardLossStorm) plan_.add(e);
  }
  apply_shard_faults(schedule, opts, service_, admitted_, plan_);
  apply_torn_tail_sabotage(schedule, opts, plan_);
  arm(declared_epochs(schedule, opts));
}

Experiment::Experiment(const core::ServiceParams& params, const Observers& observe)
    : observe_(observe), service_(params), plan_(service_) {
  open();
}

void Experiment::open() {
  telemetry::Hub& hub = service_.simulator().telemetry();
  if (observe_.telemetry) {
    hub.enable();
    hub.slo().enable();
  }
  if (observe_.flight_recorder || !observe_.postmortem_path.empty()) {
    hub.flight_recorder().enable();
    if (!observe_.postmortem_path.empty()) {
      hub.flight_recorder().set_dump_path(observe_.postmortem_path);
    }
  }
  service_.start();
}

void Experiment::admit(const std::vector<core::ObjectSpec>& objects,
                       const std::vector<core::InterObjectConstraint>& constraints) {
  offered_ += objects.size();
  for (const core::ObjectSpec& spec : objects) {
    if (service_.register_object(spec).ok()) admitted_.push_back(spec.id);
  }
  for (const core::InterObjectConstraint& c : constraints) {
    service_.add_constraint(c);  // rejection is a legal outcome
  }
}

void Experiment::arm(std::vector<FaultEpoch> epochs) {
  plan_.arm();
  monitor_.emplace(service_, admitted_, std::move(epochs));
  monitor_->start();
  if (observe_.health_jsonl_path.empty()) return;
  health_out_.emplace(observe_.health_jsonl_path);
  if (*health_out_) {
    health_ = std::make_unique<core::HealthFeed>(service_, *health_out_, admitted_,
                                                 observe_.health_period);
    health_->start();
  } else {
    RTPB_WARN("chaos", "cannot open %s for health feed", observe_.health_jsonl_path.c_str());
  }
}

void Experiment::finish() {
  if (health_ != nullptr) health_->stop();
  service_.finish();

  // A clean run never tripped the dump: ship the full ring anyway so the
  // artifact path always yields something inspectable.
  telemetry::Hub& hub = service_.simulator().telemetry();
  telemetry::FlightRecorder& recorder = hub.flight_recorder();
  if (recorder.enabled() && !observe_.postmortem_path.empty() && !recorder.dumped()) {
    recorder.trigger_dump("end-of-run", service_.simulator().now());
  }

  // The service lives only as long as the experiment, so exports happen here.
  if (!observe_.telemetry) return;
  export_to(observe_.metrics_json_path, "metrics",
            [&hub](std::ostream& out) { out << hub.registry().to_json() << "\n"; });
  export_to(observe_.trace_json_path, "trace",
            [&hub](std::ostream& out) { telemetry::write_chrome_trace(hub, out); });
  export_to(observe_.trace_jsonl_path, "trace",
            [&hub](std::ostream& out) { telemetry::write_jsonl(hub, out); });
}

SeedReport Experiment::report() {
  SeedReport report;
  const sim::Simulator& sim = service_.simulator();
  report.trace_digest = sim.telemetry().digest().value();
  report.trace_events = sim.telemetry().digest().records();
  report.sim_events = sim.fired_events();
  report.violations = monitor_->violations();
  report.violation_count = monitor_->violation_count();
  report.oracle_checks = monitor_->checks();
  report.fired = plan_.fired();
  report.objects_offered = offered_;
  report.objects_admitted = admitted_.size();
  report.client_writes =
      service_.client().writes_issued() + service_.backup_client().writes_issued();
  service_.for_each_replica([&report](const core::ReplicaServer& r) {
    report.updates_applied += r.updates_applied();
    report.epoch_rejections += r.epoch_rejections();
    report.cross_epoch_applies += r.cross_epoch_applies();
    report.updates_shed += r.updates_shed();
    report.qos_downgrades += r.qos_downgrades_sent();
    report.qos_restores += r.qos_restores_sent();
    report.transfer_give_ups += r.transfer_give_ups();
    report.recoveries += r.recoveries();
    report.recovery_lost += r.recovery_lost_updates();
    report.resync_deltas += r.resync_deltas_sent();
    report.resync_fulls += r.resync_fulls_sent();
  });
  report.avg_max_distance_ms = service_.metrics().average_max_distance_ms();
  report.total_inconsistency_ms = service_.metrics().total_inconsistency().millis();
  report.inconsistency_intervals = service_.metrics().inconsistency_intervals();

  const telemetry::Hub& hub = sim.telemetry();
  const telemetry::FlightRecorder& recorder = hub.flight_recorder();
  report.flight_events = recorder.recorded();
  report.postmortem_written = recorder.dumped();
  report.postmortem_reason = recorder.dump_reason();
  if (health_ != nullptr) report.health_snapshots = health_->snapshots();

  if (observe_.telemetry) {
    report.spans_started = hub.spans_started();
    report.spans_violated = hub.spans_violated();
    report.telemetry_events = hub.recorded_events();
    report.metrics_json = hub.registry().to_json();
  }
  return report;
}

}  // namespace rtpb::chaos
