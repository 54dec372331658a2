#include "chaos/harness.hpp"

#include <cstdio>
#include <fstream>
#include <memory>
#include <ostream>

#include "core/faults.hpp"
#include "core/health.hpp"
#include "shard/directory.hpp"
#include "telemetry/export.hpp"
#include "util/log.hpp"

namespace rtpb::chaos {

namespace {

/// Translate kShardLossStorm events into scripted per-object loss
/// overrides on the acting primary.  Lives here, not in apply(): the
/// override set needs the directory placement and the admitted list.
/// Shard membership is resolved eagerly so the scheduled actions carry
/// plain id lists.
void apply_shard_faults(const ChaosSchedule& schedule, const ChaosOptions& opts,
                        core::RtpbService& service,
                        const std::vector<core::ObjectId>& admitted, core::FaultPlan& plan) {
  if (opts.shards <= 1) return;
  const shard::ShardDirectory directory(static_cast<shard::ShardId>(opts.shards), 1);
  for (const ChaosEvent& e : schedule.events) {
    if (e.kind != FaultKind::kShardLossStorm) continue;
    std::vector<core::ObjectId> ids;
    for (core::ObjectId id : admitted) {
      if (directory.shard_of(id) == e.shard) ids.push_back(id);
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
/// quiescent).  Lives here, not in apply(): the replica index follows the
/// service's for_each_replica order, which the schedule layer cannot know.
void apply_torn_tail_sabotage(const ChaosSchedule& schedule, const ChaosOptions& opts,
                              core::FaultPlan& plan) {
  if (opts.torn_tail_bytes == 0) return;
  for (const ChaosEvent& e : schedule.events) {
    if (e.kind != FaultKind::kCrashRestartPrimary && e.kind != FaultKind::kCrashRestartBackup)
      continue;
    const std::size_t replica = e.kind == FaultKind::kCrashRestartPrimary ? 0 : 1;
    plan.tear_wal_tail(e.at + (e.until - e.at) / 2, replica, opts.torn_tail_bytes);
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

SeedReport run_seed(std::uint64_t seed, const ChaosOptions& opts) {
  const ChaosSchedule schedule = generate_schedule(seed, opts);

  core::ServiceParams params;
  params.seed = schedule.service_seed;
  params.link = opts.link;
  params.config = opts.config;
  params.backup_count = opts.backups;
  // Durable replicas are required for restart; WAL appends are synchronous
  // and draw no randomness, so this alone never perturbs digests.
  params.durable = opts.enable_crash_restart;

  core::RtpbService service(params);
  service.simulator().trace().enable();
  telemetry::Hub& hub = service.simulator().telemetry();
  if (opts.telemetry) {
    hub.enable();
    hub.slo().enable();
  }
  if (opts.flight_recorder || !opts.postmortem_path.empty()) {
    hub.flight_recorder().enable();
    if (!opts.postmortem_path.empty()) {
      hub.flight_recorder().set_dump_path(opts.postmortem_path);
    }
  }
  service.start();

  const Workload workload = generate_workload(seed, opts);
  std::vector<core::ObjectId> admitted;
  for (const core::ObjectSpec& spec : workload.objects) {
    if (service.register_object(spec).ok()) admitted.push_back(spec.id);
  }
  for (const core::InterObjectConstraint& c : workload.constraints) {
    service.add_constraint(c);  // rejection is a legal outcome
  }

  core::FaultPlan plan(service);
  apply(schedule, plan);
  apply_shard_faults(schedule, opts, service, admitted, plan);
  apply_torn_tail_sabotage(schedule, opts, plan);
  plan.arm();

  OracleMonitor monitor(service, admitted, declared_epochs(schedule, opts));
  monitor.start();

  std::ofstream health_out;
  std::unique_ptr<core::HealthFeed> health;
  if (!opts.health_jsonl_path.empty()) {
    health_out.open(opts.health_jsonl_path);
    if (health_out) {
      health = std::make_unique<core::HealthFeed>(service, health_out, admitted,
                                                  opts.health_period);
      health->start();
    } else {
      RTPB_WARN("chaos", "cannot open %s for health feed", opts.health_jsonl_path.c_str());
    }
  }

  service.run_for(opts.duration);
  if (health != nullptr) health->stop();
  service.finish();

  // A clean run never tripped the dump: ship the full ring anyway so the
  // artifact path always yields something inspectable.
  telemetry::FlightRecorder& recorder = hub.flight_recorder();
  if (recorder.enabled() && !opts.postmortem_path.empty() && !recorder.dumped()) {
    recorder.trigger_dump("end-of-run", service.simulator().now());
  }

  SeedReport report;
  report.seed = seed;
  report.trace_digest = service.simulator().trace().digest();
  report.trace_events = service.simulator().trace().recorded();
  report.sim_events = service.simulator().fired_events();
  report.violations = monitor.violations();
  report.violation_count = monitor.violation_count();
  report.oracle_checks = monitor.checks();
  report.fired = plan.fired();
  report.objects_offered = workload.objects.size();
  report.objects_admitted = admitted.size();
  report.client_writes =
      service.client().writes_issued() + service.backup_client().writes_issued();
  service.for_each_replica([&report](const core::ReplicaServer& r) {
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
  report.avg_max_distance_ms = service.metrics().average_max_distance_ms();
  report.total_inconsistency_ms = service.metrics().total_inconsistency().millis();
  report.inconsistency_intervals = service.metrics().inconsistency_intervals();
  if (!report.ok()) report.reproducer = render_reproducer(schedule, opts);

  report.flight_events = recorder.recorded();
  report.postmortem_written = recorder.dumped();
  report.postmortem_reason = recorder.dump_reason();
  if (health != nullptr) report.health_snapshots = health->snapshots();

  if (opts.telemetry) {
    report.spans_started = hub.spans_started();
    report.spans_violated = hub.spans_violated();
    report.telemetry_events = hub.recorded_events();
    report.metrics_json = hub.registry().to_json();
    if (!opts.metrics_json_path.empty()) {
      std::ofstream out(opts.metrics_json_path);
      if (out) {
        out << report.metrics_json << "\n";
      } else {
        RTPB_WARN("chaos", "cannot open %s for metrics export", opts.metrics_json_path.c_str());
      }
    }
    // The service lives only inside this call, so exports happen here too.
    if (!opts.trace_json_path.empty()) {
      std::ofstream out(opts.trace_json_path);
      if (out) {
        telemetry::write_chrome_trace(hub, out);
      } else {
        RTPB_WARN("chaos", "cannot open %s for trace export", opts.trace_json_path.c_str());
      }
    }
    if (!opts.trace_jsonl_path.empty()) {
      std::ofstream out(opts.trace_jsonl_path);
      if (out) {
        telemetry::write_jsonl(hub, out);
      } else {
        RTPB_WARN("chaos", "cannot open %s for trace export", opts.trace_jsonl_path.c_str());
      }
    }
  }
  return report;
}

SweepResult run_sweep(std::uint64_t first_seed, std::size_t count, const ChaosOptions& opts,
                      std::ostream* progress) {
  SweepResult result;
  for (std::size_t i = 0; i < count; ++i) {
    SeedReport report = run_seed(first_seed + i, opts);
    ++result.seeds_run;
    result.total_checks += report.oracle_checks;
    if (progress != nullptr) *progress << report.summary() << "\n";
    if (!report.ok()) {
      if (progress != nullptr) {
        for (const OracleViolation& v : report.violations) {
          *progress << "  [" << v.at.to_string() << "] " << v.oracle << ": " << v.detail
                    << "\n";
        }
        *progress << report.reproducer;
      }
      result.failures.push_back(std::move(report));
    }
  }
  return result;
}

}  // namespace rtpb::chaos
