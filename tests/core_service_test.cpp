// End-to-end tests of the assembled RTPB service: replication over the
// x-kernel stack, temporal-consistency guarantees, loss handling,
// backup-triggered retransmission, failure detection, failover, and
// new-backup recruitment.
#include "core/rtpb.hpp"

#include <gtest/gtest.h>

namespace rtpb::core {
namespace {

ObjectSpec make_spec(ObjectId id, Duration client_period = millis(10),
                     Duration delta_p = millis(20), Duration delta_b = millis(100)) {
  ObjectSpec s;
  s.id = id;
  s.name = "obj" + std::to_string(id);
  s.size_bytes = 64;
  s.client_period = client_period;
  s.client_exec = micros(200);
  s.update_exec = micros(200);
  s.delta_primary = delta_p;
  s.delta_backup = delta_b;
  return s;
}

/// `update_loss` is the paper's injected update-stream loss; genuine link
/// faults go through p.link.loss_probability instead.
ServiceParams make_params(double update_loss = 0.0, std::uint64_t seed = 42) {
  ServiceParams p;
  p.seed = seed;
  p.link.propagation = millis(1);
  p.link.jitter = micros(200);
  p.config.update_loss_probability = update_loss;
  return p;
}

TEST(RtpbService, ReplicatesWritesToBackup) {
  RtpbService service(make_params());
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(2));

  const auto primary_state = service.primary().read(1);
  const auto backup_state = service.backup().read(1);
  ASSERT_TRUE(primary_state.has_value());
  ASSERT_TRUE(backup_state.has_value());
  EXPECT_GT(primary_state->version, 100u);  // ~200 writes in 2s at 10ms
  EXPECT_GT(backup_state->version, 0u);
  // Backup within one update period of the primary.
  EXPECT_GE(backup_state->version + 10, primary_state->version);
  EXPECT_GT(service.primary().updates_sent(), 0u);
  EXPECT_GT(service.backup().updates_applied(), 0u);
}

TEST(RtpbService, NoLossMeansNoInconsistency) {
  RtpbService service(make_params(0.0));
  service.start();
  for (ObjectId id = 1; id <= 5; ++id) {
    ASSERT_TRUE(service.register_object(make_spec(id)).ok());
  }
  service.warm_up(seconds(1));
  service.run_for(seconds(5));
  service.finish();
  // The window-derived update period guarantees staleness stays inside the
  // window when nothing is lost (Theorem 5 machinery).
  EXPECT_EQ(service.metrics().inconsistency_intervals(), 0u);
  EXPECT_LT(service.metrics().average_max_distance_ms(), 100.0);
}

TEST(RtpbService, DistanceStaysWithinWindowWithoutLoss) {
  RtpbService service(make_params());
  service.start();
  const ObjectSpec spec = make_spec(1);
  ASSERT_TRUE(service.register_object(spec).ok());
  service.warm_up(seconds(1));
  service.run_for(seconds(5));
  service.finish();
  EXPECT_LE(service.metrics().max_distance(1), spec.window());
}

TEST(RtpbService, LossIncreasesDistance) {
  auto run = [](double loss) {
    RtpbService service(make_params(loss, /*seed=*/7));
    service.start();
    for (ObjectId id = 1; id <= 5; ++id) {
      auto r = service.register_object(make_spec(id));
      EXPECT_TRUE(r.ok());
    }
    service.warm_up(seconds(1));
    service.run_for(seconds(10));
    service.finish();
    return service.metrics().average_max_distance_ms();
  };
  const double d0 = run(0.0);
  const double d30 = run(0.3);
  EXPECT_GT(d30, d0);
}

TEST(RtpbService, BackupWatchdogRequestsRetransmission) {
  // Under sustained loss the backup's watchdog must fire NACKs and the
  // primary must serve retransmissions.
  RtpbService service(make_params(0.6, /*seed=*/11));
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(10));
  EXPECT_GT(service.backup().retransmit_requests_sent(), 0u);
  EXPECT_GT(service.primary().retransmissions_served(), 0u);
}

TEST(RtpbService, RegistrationSurvivesLossViaAckedTransfer) {
  // Genuine link-level loss here: every message class is at risk, so the
  // registration must survive through acked retry.  Detection thresholds
  // are loosened so the lossy link is not mistaken for a crash.
  ServiceParams params = make_params(0.0, /*seed=*/13);
  params.link.loss_probability = 0.5;
  params.config.ping_max_misses = 1000;
  RtpbService service(params);
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(3));
  // Despite 50% loss, the acked-and-retried state transfer must land.
  EXPECT_TRUE(service.backup().store().contains(1));
}

TEST(RtpbService, AckModeAcknowledgesUpdates) {
  ServiceParams params = make_params(0.0);
  params.config.ack_every_update = true;
  RtpbService service(params);
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(2));
  EXPECT_GT(service.backup().acks_sent(), 0u);
  // With no loss there is nothing to retransmit.
  EXPECT_EQ(service.primary().retransmissions_served(), 0u);
}

TEST(RtpbService, AckModeRetransmitsOnLoss) {
  ServiceParams params = make_params(0.4, /*seed=*/17);
  params.config.ack_every_update = true;
  RtpbService service(params);
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(5));
  EXPECT_GT(service.primary().retransmissions_served(), 0u);
}

TEST(RtpbService, ResponseTimesRecordedAndSmall) {
  RtpbService service(make_params());
  service.start();
  for (ObjectId id = 1; id <= 3; ++id) {
    ASSERT_TRUE(service.register_object(make_spec(id)).ok());
  }
  service.run_for(seconds(2));
  const auto& rt = service.metrics().response_times();
  EXPECT_GT(rt.count(), 100u);
  // Lightly loaded CPU: responses near the bare execution time (0.2ms).
  EXPECT_LT(rt.quantile(0.5), 2.0);
}

TEST(RtpbService, AdmissionRejectsBeyondCapacity) {
  RtpbService service(make_params());
  service.start();
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (ObjectId id = 1; id <= 400; ++id) {
    ObjectSpec s = make_spec(id);
    s.client_exec = millis(1);  // heavier load to hit the RM bound
    if (service.register_object(s).ok()) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
  service.run_for(seconds(2));
  EXPECT_EQ(service.primary().cpu().deadline_misses(), 0u);
}

TEST(RtpbService, WithoutAdmissionControlResponseTimesExplode) {
  ServiceParams params = make_params();
  params.config.admission_control_enabled = false;
  // Client requests queue FIFO at the server (the Mach IPC interface of
  // §4.1), which is where overload shows up as response-time blowup.
  params.config.cpu_policy = sched::Policy::kFifo;
  RtpbService service(params);
  service.start();
  for (ObjectId id = 1; id <= 120; ++id) {
    ObjectSpec s = make_spec(id);
    s.client_exec = millis(1);  // 120 objects * >10% util each: overload
    ASSERT_TRUE(service.register_object(s).ok());
  }
  service.run_for(seconds(2));
  EXPECT_GT(service.metrics().response_times().quantile(0.9), 10.0);
  EXPECT_GT(service.primary().cpu().deadline_misses(), 0u);
}

TEST(RtpbService, FailoverPromotesBackup) {
  RtpbService service(make_params());
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(2));

  const auto before = service.names().lookup("rtpb-service");
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->node, service.primary().node());

  const TimePoint crash_at = service.simulator().now();
  service.crash_primary();
  service.run_for(seconds(1));

  EXPECT_EQ(service.backup().role(), Role::kPrimary);
  const auto after = service.names().lookup("rtpb-service");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->node, service.backup().node());
  // Detection within max_misses pings + timeout (plus scheduling slack).
  EXPECT_LE(service.backup().promoted_at() - crash_at, millis(600));
  // The backup client application took over sensing.
  EXPECT_TRUE(service.backup_client().active());
  EXPECT_GT(service.backup_client().sensing_tasks(), 0u);
}

TEST(RtpbService, NewPrimaryContinuesService) {
  RtpbService service(make_params());
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(2));
  service.crash_primary();
  service.run_for(seconds(1));
  ASSERT_EQ(service.backup().role(), Role::kPrimary);

  const auto v_at_takeover = service.backup().read(1)->version;
  service.run_for(seconds(2));
  const auto v_later = service.backup().read(1)->version;
  // The activated backup client keeps writing.
  EXPECT_GT(v_later, v_at_takeover + 50);
}

TEST(RtpbService, RecruitedStandbyReceivesStateAndUpdates) {
  RtpbService service(make_params());
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(2));
  service.crash_primary();
  service.run_for(seconds(1));
  ASSERT_EQ(service.backup().role(), Role::kPrimary);

  ReplicaServer& standby = service.add_standby();
  service.run_for(seconds(2));

  // Full state transfer landed...
  ASSERT_TRUE(standby.store().contains(1));
  const auto v1 = standby.read(1)->version;
  EXPECT_GT(v1, 0u);
  // ...and the periodic update stream is flowing to the new backup.
  service.run_for(seconds(2));
  EXPECT_GT(standby.read(1)->version, v1);
}

TEST(RtpbService, StandbyWithNoLivePrimaryIsOrphaned) {
  // Both replicas die before the failover settles: the standby has no
  // live primary to recruit it, so no state reaches it.  (It then
  // promotes itself with an empty store; ROADMAP item 1 owns that.)
  RtpbService service(make_params());
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(1));
  service.crash_primary();
  service.crash_backup();
  ReplicaServer& standby = service.add_standby();
  service.run_for(seconds(1));
  EXPECT_EQ(service.orphan_standbys(), 1u);
  EXPECT_FALSE(standby.store().contains(1));
}

TEST(RtpbService, PrimaryCancelsUpdatesWhenBackupDies) {
  RtpbService service(make_params());
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(1));
  service.crash_backup();
  service.run_for(seconds(1));  // detector fires; update tasks cancelled
  const auto sent_after_detect = service.primary().updates_sent();
  service.run_for(seconds(2));
  EXPECT_EQ(service.primary().updates_sent(), sent_after_detect);
  // The primary keeps serving clients.
  const auto v = service.primary().read(1)->version;
  service.run_for(seconds(1));
  EXPECT_GT(service.primary().read(1)->version, v);
}

TEST(RtpbService, InterObjectConstraintAccepted) {
  RtpbService service(make_params());
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  ASSERT_TRUE(service.register_object(make_spec(2)).ok());
  ASSERT_TRUE(service.add_constraint({1, 2, millis(30)}).ok());
  // Update periods tightened to the inter-object bound.
  EXPECT_LE(service.primary().admission().update_period(1), millis(30));
  service.warm_up(seconds(1));
  service.run_for(seconds(3));
  service.finish();
  EXPECT_EQ(service.metrics().inconsistency_intervals(), 0u);
}

TEST(RtpbService, DeterministicAcrossRuns) {
  auto run = [] {
    RtpbService service(make_params(0.2, /*seed=*/99));
    service.start();
    for (ObjectId id = 1; id <= 3; ++id) {
      EXPECT_TRUE(service.register_object(make_spec(id)).ok());
    }
    service.run_for(seconds(5));
    return std::tuple{service.primary().updates_sent(), service.backup().updates_applied(),
                      service.backup().read(1)->version};
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace rtpb::core
