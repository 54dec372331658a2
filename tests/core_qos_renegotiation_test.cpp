// Runtime QoS renegotiation: the kConstraintDowngrade / kConstraintRestore
// round trip, its interaction with in-flight state transfers, the epoch
// fence that kills stale renegotiations after failover, and the restore
// hysteresis that keeps downgrades from flapping.
#include <gtest/gtest.h>

#include "core/rtpb.hpp"
#include "protocol_facts.hpp"

namespace rtpb::core {
namespace {

ObjectSpec make_spec(ObjectId id) {
  ObjectSpec s;
  s.id = id;
  s.name = "obj" + std::to_string(id);
  s.size_bytes = 64;
  s.client_period = millis(10);
  s.client_exec = micros(200);
  s.update_exec = micros(200);
  s.delta_primary = millis(20);
  s.delta_backup = millis(100);
  return s;
}

ServiceParams make_params(std::uint64_t seed, std::size_t backups = 1) {
  ServiceParams p;
  p.seed = seed;
  p.link.propagation = millis(1);
  p.link.jitter = micros(200);
  p.backup_count = backups;
  return p;
}

Duration backup_window(RtpbService& service, ObjectId id) {
  const auto state = service.backups().front()->store().find(id);
  return state ? state->spec.window() : Duration::zero();
}

TEST(QosRenegotiation, DowngradeRoundTripLoosensBothReplicas) {
  RtpbService service(make_params(201));
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(1));

  const Duration original = make_spec(1).window();
  ASSERT_EQ(backup_window(service, 1), original);

  ASSERT_TRUE(service.primary().downgrade_object(1));
  EXPECT_TRUE(service.primary().qos_downgrade_active(1));
  EXPECT_EQ(service.primary().qos_downgrades_sent(), 1u);
  EXPECT_GT(service.primary().qos_last_notice_at(1), TimePoint::zero());

  // The loosened spec lands in the primary's own store immediately …
  const auto at_primary = service.primary().store().find(1);
  ASSERT_TRUE(at_primary.has_value());
  EXPECT_GT(at_primary->spec.window(), original);

  // … and the notice reaches the backup on the wire.
  service.run_for(millis(50));
  EXPECT_EQ(service.backups().front()->qos_downgrades_received(), 1u);
  EXPECT_EQ(backup_window(service, 1), at_primary->spec.window());

  // Restore puts the negotiated constraint back everywhere.
  ASSERT_TRUE(service.primary().restore_object(1));
  EXPECT_FALSE(service.primary().qos_downgrade_active(1));
  EXPECT_EQ(service.primary().qos_restores_sent(), 1u);
  service.run_for(millis(50));
  EXPECT_EQ(backup_window(service, 1), original);
  const auto restored = service.primary().store().find(1);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->spec.window(), original);
}

TEST(QosRenegotiation, DowngradeDuringPendingTransferRidesTheTransfer) {
  // Register while the replication link is black-holed: the registration
  // state transfer stays pending.  A downgrade issued in that gap updates
  // the store spec, so when the link heals the retried transfer carries
  // the *downgraded* constraint — the backup must not resurrect the
  // original.
  ServiceParams params = make_params(202);
  params.config.ping_max_misses = 1000000;  // keep the peer un-suspected
  params.config.transfer_retry_limit = 0;   // retry forever, no give-up
  // Keep the downgrade in force for the whole test: a healthy service
  // would otherwise restore the original before we can observe what the
  // retried transfer carried.
  params.config.degrade_restore_hold = seconds(60);
  RtpbService service(params);
  telemetry::Hub& hub = service.simulator().telemetry();
  hub.enable();
  service.start();
  service.run_for(millis(50));

  const net::NodeId p = service.primary().node();
  const net::NodeId b = service.backup().node();
  service.network().set_loss_probability(p, b, 1.0);
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(millis(100));
  ASSERT_FALSE(service.backups().front()->store().contains(1))
      << "transfer must still be pending behind the black hole";

  ASSERT_TRUE(service.primary().downgrade_object(1));
  const Duration downgraded = service.primary().store().find(1)->spec.window();

  service.network().set_loss_probability(p, b, 0.0);
  service.run_for(seconds(2));  // retries drain the pending transfer

  ASSERT_TRUE(service.backups().front()->store().contains(1));
  EXPECT_EQ(backup_window(service, 1), downgraded);

  // Updates that outran the retried registration were dropped as unknown;
  // stale_updates() counts those drops and the version-stale ones alike.
  const std::uint64_t unknown = facts::counter(hub, "core.backup.unknown_object");
  EXPECT_GT(unknown, 0u);
  EXPECT_EQ(facts::events(hub, "update-unknown"), unknown);
  EXPECT_EQ(facts::sum(service, &ReplicaServer::stale_updates),
            unknown + facts::counter(hub, "core.backup.stale"));
}

TEST(QosRenegotiation, StaleEpochDowngradeIsFencedAfterFailover) {
  // Drill-promote the backup while the old primary still believes it
  // leads, then have the deposed primary issue a downgrade.  The notice
  // carries the stale epoch and must be fenced — a zombie may not loosen
  // the new primary's constraints.
  RtpbService service(make_params(203));
  telemetry::Hub& hub = service.simulator().telemetry();
  hub.enable();
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(1));

  ReplicaServer& old_primary = service.primary();
  ReplicaServer& promoted = *service.backups().front();
  const Duration before = promoted.store().find(1)->spec.window();
  promoted.promote();  // epoch bumps past the old primary's

  ASSERT_TRUE(old_primary.downgrade_object(1));  // stale-epoch notice
  const std::uint64_t fenced_before = promoted.epoch_rejections();
  const std::uint64_t counted_before = facts::counter(hub, "core.epoch.rejected");
  const std::uint64_t events_before = facts::events(hub, "epoch-reject");
  service.run_for(millis(100));

  EXPECT_EQ(promoted.qos_downgrades_received(), 0u)
      << "the stale downgrade must not be applied";
  EXPECT_EQ(promoted.store().find(1)->spec.window(), before);
  EXPECT_GT(promoted.epoch_rejections(), fenced_before)
      << "the fence (not luck) must have rejected it";
  // Only the promoted replica fences (the old primary is at the lower
  // epoch), so its getter delta is the whole registry and event delta.
  const std::uint64_t fenced = promoted.epoch_rejections() - fenced_before;
  EXPECT_EQ(facts::counter(hub, "core.epoch.rejected") - counted_before, fenced);
  EXPECT_EQ(facts::events(hub, "epoch-reject") - events_before, fenced);
}

TEST(QosRenegotiation, RestoreWaitsOutTheHoldAndNeverFlaps) {
  // After a manual downgrade on an otherwise healthy service, the QoS
  // tick restores the original constraint — but only after the full
  // restore hold (≥ max(degrade_restore_hold, ping_period)), and exactly
  // once: no downgrade/restore flapping within a detector period.
  RtpbService service(make_params(204));
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(1));

  ASSERT_TRUE(service.primary().downgrade_object(1));
  const TimePoint downgraded_at = service.simulator().now();
  const Duration hold = service.params().config.degrade_restore_hold;

  // Just inside the hold: still downgraded.
  service.run_for(hold - millis(20));
  EXPECT_TRUE(service.primary().qos_downgrade_active(1));
  EXPECT_EQ(service.primary().qos_restores_sent(), 0u);

  // Give the tick room past the hold boundary: restored, exactly once.
  service.run_for(seconds(2));
  EXPECT_FALSE(service.primary().qos_downgrade_active(1));
  EXPECT_EQ(service.primary().qos_restores_sent(), 1u);
  EXPECT_EQ(service.primary().qos_downgrades_sent(), 1u)
      << "a healthy service must not re-downgrade after the restore";
  EXPECT_GE(service.primary().qos_last_notice_at(1) - downgraded_at, hold);

  // And it stays quiet: two more detector periods, no further notices.
  service.run_for(service.params().config.ping_period * 2);
  EXPECT_EQ(service.primary().qos_restores_sent(), 1u);
  EXPECT_EQ(service.primary().qos_downgrades_sent(), 1u);
}

TEST(QosRenegotiation, DegradationAnnouncesInsteadOfViolatingSilently) {
  // Over-frontier load (forced slow transmission period) with degradation
  // on: the primary must renegotiate before the window is breached, so
  // the run shows downgrades but zero unannounced-violation time beyond
  // what the downgraded window permits.
  ServiceParams params = make_params(205);
  params.config.update_period_override = millis(100);  // window is 80 ms
  RtpbService service(params);
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(3));
  service.finish();

  EXPECT_GT(service.primary().qos_downgrades_sent(), 0u)
      << "sustained over-frontier lag must trigger renegotiation";
  EXPECT_TRUE(service.primary().qos_downgrade_active(1))
      << "with the lag still present the downgrade must stay in force";
}

}  // namespace
}  // namespace rtpb::core
