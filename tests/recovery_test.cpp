// Crash–restart recovery at the service level: durable replicas power
// back up from checkpoint + WAL, rejoin the cluster through the
// incremental resync protocol (kResyncRequest → kStateDelta, with the
// full-transfer fallback), and never lose a client-acked update.
#include "core/rtpb.hpp"

#include <gtest/gtest.h>

#include "protocol_facts.hpp"
#include "store/device.hpp"

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

ObjectSpec cold_spec(ObjectId id) {
  // Written every 5 s: admission needs p ≤ δ_P and a window with room past
  // the client period, so the deltas scale too.  Transmission period is
  // window-derived (~2.5 s), so a cold version is on the backup within one
  // transmission period of the write.
  return make_spec(id, seconds(5), seconds(5), seconds(15));
}

ServiceParams make_params(std::uint64_t seed = 42) {
  ServiceParams p;
  p.seed = seed;
  p.link.propagation = millis(1);
  p.link.jitter = micros(200);
  p.durable = true;
  return p;
}

/// Objects 1–2 hot (written every 10 ms), 3–4 cold (30 s period: never
/// written again inside these tests) — so a short outage dirties exactly
/// the hot half and the rejoin can go incremental.
void register_mixed_workload(RtpbService& service) {
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  ASSERT_TRUE(service.register_object(make_spec(2)).ok());
  ASSERT_TRUE(service.register_object(cold_spec(3)).ok());
  ASSERT_TRUE(service.register_object(cold_spec(4)).ok());
}

TEST(Recovery, DurabilityIsDigestPure) {
  // WAL appends are synchronous — no sim events, no rng draws — so a
  // durable run that never crashes is trace-identical to an in-memory one.
  std::uint64_t digests[2] = {0, 0};
  for (int durable = 0; durable <= 1; ++durable) {
    ServiceParams p = make_params(7);
    p.durable = durable == 1;
    RtpbService service(p);
    service.simulator().telemetry().digest().enable();
    service.start();
    register_mixed_workload(service);
    service.run_for(seconds(2));
    digests[durable] = service.simulator().telemetry().digest().value();
    EXPECT_GT(service.simulator().telemetry().digest().records(), 100u);
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(Recovery, BackupRestartResyncsIncrementally) {
  RtpbService service(make_params());
  telemetry::Hub& hub = service.simulator().telemetry();
  hub.enable();
  service.start();
  register_mixed_workload(service);
  // Run past the cold objects' 5 s write (plus a transmission period) so
  // their latest versions are on the backup; crash inside the cold quiet
  // window [8 s, 10 s) so the outage dirties only the hot objects.
  service.run_for(seconds(8));

  const auto before = service.backup().read(1);
  ASSERT_TRUE(before.has_value());
  service.crash_backup();
  service.run_for(millis(600));  // primary declares the backup dead
  EXPECT_TRUE(service.backup().peers().empty() || service.primary().peers().empty());

  service.restart_backup(0);
  service.run_for(millis(1200));

  EXPECT_EQ(service.backup().recoveries(), 1u);
  EXPECT_EQ(service.backup().recovery_lost_updates(), 0u);
  // Versions stay monotone across the restart: the recovered store holds
  // at least what the dead incarnation had applied.
  const auto after = service.backup().read(1);
  ASSERT_TRUE(after.has_value());
  EXPECT_GE(after->version, before->version);

  // The rejoin went incremental: only the hot objects travelled.
  EXPECT_EQ(service.primary().resync_deltas_sent(), 1u);
  EXPECT_EQ(service.primary().resync_fulls_sent(), 0u);
  EXPECT_EQ(service.primary().delta_entries_sent(), 2u);

  // Replication resumed: the backup tracks the primary again.
  const auto primary_v = service.primary().read(1)->version;
  EXPECT_GE(service.backup().read(1)->version + 20, primary_v);
  EXPECT_EQ(service.primaries_alive(), 1u);

  // The rejoin's facts agree across getters, registry and events.
  EXPECT_EQ(facts::counter(hub, "core.store.recoveries"), 1u);
  EXPECT_EQ(facts::events(hub, "restart"), 1u);
  EXPECT_EQ(facts::sum(service, &ReplicaServer::resync_requests_sent),
            facts::counter(hub, "core.store.resync_requests"));
  EXPECT_EQ(facts::counter(hub, "core.store.resync_deltas"), 1u);
  EXPECT_EQ(facts::events(hub, "resync-delta"), 1u);
  EXPECT_EQ(facts::counter(hub, "core.store.delta_entries"), 2u);
  EXPECT_EQ(facts::counter(hub, "core.backup.state_deltas"), 1u);
  EXPECT_EQ(facts::events(hub, "state-delta"), 1u);
}

TEST(Recovery, EmptyVectorFallsBackToFullTransfer) {
  // A rejoiner that recovered nothing (fresh devices) asks with an empty
  // vector: the primary must recruit it with a full kStateTransfer.
  RtpbService service(make_params());
  service.start();
  register_mixed_workload(service);
  service.run_for(seconds(1));

  service.crash_backup();
  service.run_for(millis(600));
  // Wipe the backup's durable state before the restart: recovery finds
  // an empty image, as if the disks were replaced.
  service.wal_device(1)->truncate();
  service.checkpoint_device(1)->truncate();
  service.restart_backup(0);
  service.run_for(seconds(1));

  EXPECT_EQ(service.primary().resync_fulls_sent(), 1u);
  EXPECT_EQ(service.primary().resync_deltas_sent(), 0u);
  EXPECT_EQ(service.backup().store().size(), 4u);
  const auto primary_v = service.primary().read(1)->version;
  EXPECT_GE(service.backup().read(1)->version + 20, primary_v);
}

TEST(Recovery, PrimaryRestartRejoinsAsBackup) {
  RtpbService service(make_params());
  service.start();
  register_mixed_workload(service);
  service.run_for(seconds(1));

  const auto acked = service.primary().read(1);
  ASSERT_TRUE(acked.has_value());
  service.crash_primary();
  service.run_for(seconds(1));  // successor promotes (epoch 2)
  ASSERT_EQ(service.backup().role(), Role::kPrimary);
  EXPECT_EQ(service.backup().epoch(), 2u);

  service.restart_primary();
  service.run_for(seconds(1));

  // The old primary rejoined as a fenced backup of the new incarnation.
  EXPECT_EQ(service.primary().role(), Role::kBackup);
  EXPECT_EQ(service.primary().recoveries(), 1u);
  EXPECT_EQ(service.primary().recovery_lost_updates(), 0u);
  EXPECT_EQ(service.primary().epoch(), 2u);  // adopted from accepted traffic
  EXPECT_EQ(service.primaries_alive(), 1u);

  // Everything the dead primary had acked survived the round trip, and the
  // rejoined backup now tracks the new primary.
  const auto recovered = service.primary().read(1);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_GE(recovered->version, acked->version);
  EXPECT_GE(recovered->version + 20, service.backup().read(1)->version);
}

TEST(Recovery, TornWalWriteFailStopsAndRecoversCleanly) {
  RtpbService service(make_params());
  telemetry::Hub& hub = service.simulator().telemetry();
  hub.enable();
  service.start();
  register_mixed_workload(service);
  service.run_for(seconds(1));

  // Kill the backup's WAL device mid-record: the append tears, the
  // replica fail-stops (crashes itself) rather than diverging from its
  // log, and the torn tail is discarded at recovery.
  service.wal_device(1)->arm_crash_after(7);
  service.run_for(millis(600));
  EXPECT_TRUE(service.backup().crashed());
  EXPECT_EQ(service.wal_device(1)->torn_appends(), 1u);
  // A fail-stop has no getter and no event: the registry counter is its
  // only report.
  EXPECT_EQ(facts::counter(hub, "core.store.fail_stops"), 1u);

  service.restart_backup(0);
  service.run_for(seconds(1));
  EXPECT_EQ(service.backup().recoveries(), 1u);
  EXPECT_EQ(service.backup().recovery_lost_updates(), 0u);
  const auto primary_v = service.primary().read(1)->version;
  EXPECT_GE(service.backup().read(1)->version + 20, primary_v);
}

TEST(Recovery, CrashRestartRunsAreDeterministic) {
  std::uint64_t digests[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    RtpbService service(make_params(11));
    service.simulator().telemetry().digest().enable();
    service.start();
    register_mixed_workload(service);
    service.run_for(seconds(1));
    service.crash_backup();
    service.run_for(millis(700));
    service.restart_backup(0);
    service.run_for(seconds(1));
    service.crash_primary();
    service.run_for(seconds(1));
    service.restart_primary();
    service.run_for(seconds(1));
    digests[run] = service.simulator().telemetry().digest().value();
    EXPECT_EQ(service.primaries_alive(), 1u);
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(Recovery, CheckpointsBoundReplay) {
  // With a small checkpoint budget the WAL stays short: recovery replays
  // O(checkpoint_every) records, not the whole history.
  ServiceParams p = make_params();
  p.checkpoint_every = 32;
  RtpbService service(p);
  service.start();
  register_mixed_workload(service);
  service.run_for(seconds(2));

  ASSERT_GT(service.primary().durable()->checkpoints(), 0u);
  service.crash_primary();
  service.run_for(millis(100));
  service.restart_primary();
  // The replica-side recovery stats are in the flight/trace path; here we
  // just bound the device: the WAL on disk held fewer records than two
  // checkpoint windows at the instant of recovery.
  EXPECT_EQ(service.primary().recoveries(), 1u);
  EXPECT_EQ(service.primary().recovery_lost_updates(), 0u);
}

// ---- state-transfer edge cases across crash-restart --------------------

TEST(Recovery, CrashAgainMidResyncRejoinsOnSecondAttempt) {
  // The rejoiner dies a second time with its kResyncRequest (or the
  // answering kStateDelta) still in flight.  The primary's retry/give-up
  // machinery must not wedge on the orphaned transfer, and the second
  // restart must converge exactly like the first.
  RtpbService service(make_params());
  service.start();
  register_mixed_workload(service);
  service.run_for(seconds(8));

  service.crash_backup();
  service.run_for(millis(600));
  service.restart_backup(0);
  // The resync request goes out immediately on rejoin (link propagation
  // 1 ms): crash again before the delta can possibly be applied.
  service.run_for(micros(500));
  service.crash_backup();
  service.run_for(millis(600));

  service.restart_backup(0);
  service.run_for(seconds(2));

  EXPECT_EQ(service.backup().recoveries(), 2u);
  EXPECT_EQ(service.backup().recovery_lost_updates(), 0u);
  // Both rejoin attempts asked; at least the surviving one was answered
  // and applied.  The first delta may have died with the replica — the
  // primary gives the transfer up when the peer is declared down again
  // instead of retrying into a corpse forever.
  EXPECT_EQ(service.backup().resync_requests_sent(), 2u);
  EXPECT_GE(service.primary().resync_deltas_sent() + service.primary().resync_fulls_sent(), 1u);
  EXPECT_EQ(service.primary().pending_transfer_count(), 0u);

  const auto primary_v = service.primary().read(1)->version;
  EXPECT_GE(service.backup().read(1)->version + 20, primary_v);
  EXPECT_EQ(service.primaries_alive(), 1u);
}

TEST(Recovery, RecruitmentRacingResyncDeltaConverges) {
  // A full kStateTransfer (recruitment) and a kStateDelta (incremental
  // resync) race to the same rejoiner.  Both ride the per-sender
  // transfer-id sequence, so the reorder guard totally orders them: the
  // older one may still apply object entries (versions gate the store)
  // but must not clobber the newer last-writer-wins snapshots.
  RtpbService service(make_params());
  service.start();
  register_mixed_workload(service);
  service.run_for(seconds(8));

  service.crash_backup();
  service.run_for(millis(600));
  service.restart_backup(0);
  // Rejoin sends the resync request; before the delta lands, the test
  // recruits the same endpoint — as an operator re-adding a node by hand
  // would — putting a full transfer in flight right behind it.
  service.primary().recruit_backup(service.backup().endpoint());
  service.run_for(seconds(2));

  EXPECT_EQ(service.primary().resync_deltas_sent(), 1u);
  EXPECT_EQ(service.backup().recoveries(), 1u);
  EXPECT_EQ(service.backup().recovery_lost_updates(), 0u);
  EXPECT_EQ(service.primary().pending_transfer_count(), 0u);
  // Whichever frame lost the race was fenced as a stale transfer id or
  // applied idempotently — either way the stores agree afterwards.
  EXPECT_EQ(service.backup().store().size(), 4u);
  const auto primary_v = service.primary().read(1)->version;
  EXPECT_GE(service.backup().read(1)->version + 20, primary_v);
  EXPECT_EQ(service.primaries_alive(), 1u);
}

TEST(Recovery, RestartedPrimaryMintsTransferIdsAboveItsOldOnes) {
  // The transfer-id high-water guard discards per-sender ids that go
  // backwards.  next_transfer_id_ is therefore persisted: a crashed
  // primary that powers back up and is later re-promoted must mint ids
  // ABOVE everything it sent in its first incarnation, or a peer that
  // stayed alive the whole time would fence its recruitment as a stale
  // retry of the pre-crash transfer.
  ServiceParams p = make_params();
  p.backup_count = 2;
  RtpbService service(p);
  service.start();
  register_mixed_workload(service);
  service.run_for(seconds(1));

  ReplicaServer& node2 = *service.backups()[1];
  const std::uint64_t old_high_water =
      node2.highest_transfer_applied(service.primary().node());
  ASSERT_GT(old_high_water, 0u);  // initial recruitment landed

  // First incarnation dies; the successor promotes and re-recruits node2.
  service.crash_primary();
  service.run_for(seconds(1));
  ASSERT_EQ(service.backup().role(), Role::kPrimary);

  // The old primary recovers its durable image — including the transfer-id
  // counter — and rejoins as a backup of the new incarnation.
  service.restart_primary();
  service.run_for(seconds(1));
  ASSERT_EQ(service.primary().role(), Role::kBackup);

  // Now the new primary dies too.  The service's fixed wiring only ever
  // designates the front backup as successor, so the test promotes the
  // recovered replica by hand (the operator's failover of last resort)
  // and has it recruit the surviving backup.
  service.crash_backup();
  service.run_for(millis(600));
  service.primary().promote();
  service.primary().recruit_backup(node2.endpoint());
  service.run_for(seconds(1));

  // node2 never crashed: its high-water for node0 still reflects the
  // first incarnation.  The re-recruitment only applies because the
  // recovered counter kept minting past it.
  const std::uint64_t new_high_water =
      node2.highest_transfer_applied(service.primary().node());
  EXPECT_GT(new_high_water, old_high_water);
  EXPECT_EQ(service.primary().pending_transfer_count(), 0u);
  EXPECT_EQ(service.primaries_alive(), 1u);
  EXPECT_EQ(node2.role(), Role::kBackup);
  EXPECT_FALSE(node2.crashed());
}

TEST(Recovery, QosDowngradeSurvivesBackupCrashRestart) {
  // QoS renegotiation state is deliberately not durable: a rejoiner's
  // recovered image holds the ORIGINAL spec even when the cluster runs
  // under a downgrade.  The resync version vector carries qos_seq per
  // object, so a version-clean but spec-stale object is still dirty and
  // the rejoiner adopts the sender's (downgraded) spec — otherwise the
  // shared metrics would judge the object against the tight original
  // window and report staleness violations nobody actually caused.
  ServiceParams p = make_params();
  // Keep the downgrade in force across the whole outage: the default
  // 500 ms restore hold would quietly re-tighten the window while the
  // backup is down and void what this test is after.
  p.config.degrade_restore_hold = seconds(60);
  RtpbService service(p);
  service.start();
  register_mixed_workload(service);
  service.run_for(seconds(8));

  // Downgrade a COLD object: it is never written during the outage, so
  // only the qos_seq rule can mark it dirty.
  const Duration original = cold_spec(3).window();
  ASSERT_TRUE(service.primary().downgrade_object(3));
  const Duration downgraded = service.primary().store().find(3)->spec.window();
  ASSERT_GT(downgraded, original);
  service.run_for(millis(100));
  ASSERT_EQ(service.backup().store().find(3)->spec.window(), downgraded);

  service.crash_backup();
  service.run_for(millis(600));
  service.restart_backup(0);
  service.run_for(millis(1200));

  // Incremental rejoin: the two hot objects (version-behind) plus the
  // downgraded cold one (qos-behind) travelled — not the full table.
  EXPECT_EQ(service.primary().resync_deltas_sent(), 1u);
  EXPECT_EQ(service.primary().resync_fulls_sent(), 0u);
  EXPECT_EQ(service.primary().delta_entries_sent(), 3u);

  // The rejoined backup runs under the downgraded window again, and the
  // untouched cold object kept its original spec.
  EXPECT_EQ(service.backup().store().find(3)->spec.window(), downgraded);
  EXPECT_EQ(service.backup().store().find(4)->spec.window(), original);
  EXPECT_EQ(service.backup().recovery_lost_updates(), 0u);
}

TEST(Recovery, RestartShedsPerObjectStateButKeepsNoticeTime) {
  // A primary in ack mode, with cold object 3 downgraded, crashes and
  // restarts.  restart() must drop every object's update task, ack
  // timeout, downgrade and applied QoS seq; the last QoS notice time is
  // kept because the no-silent-violation oracle reads it.
  ServiceParams p = make_params();
  p.config.ack_every_update = true;
  p.config.degrade_restore_hold = seconds(60);
  RtpbService service(p);
  service.start();
  register_mixed_workload(service);
  service.run_for(seconds(8));

  ReplicaServer& rejoiner = service.primary();
  const Duration original = cold_spec(3).window();
  ASSERT_TRUE(rejoiner.downgrade_object(3));
  const Duration downgraded = rejoiner.store().find(3)->spec.window();
  ASSERT_GT(downgraded, original);
  const TimePoint notice_at = rejoiner.qos_last_notice_at(3);
  ASSERT_GT(notice_at, TimePoint::zero());
  service.run_for(millis(100));

  service.crash_primary();
  service.run_for(seconds(1));  // the successor promotes
  ReplicaServer& acting = service.acting_primary();
  ASSERT_EQ(&acting, &service.backup());
  ASSERT_EQ(acting.store().find(3)->spec.window(), downgraded);

  // Cut the rejoiner off so its first resync request is lost: until a
  // transfer re-peers it, a leftover update task would send updates to
  // the primary it now follows, and a leftover watchdog would NACK.
  service.network().set_loss_probability(rejoiner.node(), acting.node(), 1.0);
  service.restart_primary();
  EXPECT_FALSE(rejoiner.qos_downgrade_active(3));
  EXPECT_EQ(rejoiner.qos_last_notice_at(3), notice_at);
  EXPECT_EQ(rejoiner.store().find(3)->spec.window(), original);  // QoS is not durable
  const std::uint64_t updates = rejoiner.updates_sent();
  const std::uint64_t nacks = rejoiner.retransmit_requests_sent();
  service.run_for(millis(150));
  EXPECT_EQ(rejoiner.resync_requests_sent(), 1u);
  EXPECT_EQ(rejoiner.updates_sent(), updates);
  EXPECT_EQ(rejoiner.retransmit_requests_sent(), nacks);

  // The retried resync lands.  The successor's client twin rewrote every
  // object at promotion, so the rejoiner is behind on all of them and gets
  // a full transfer; it adopts the downgraded spec the acting primary runs
  // under.  (QosDowngradeSurvivesBackupCrashRestart covers the delta case,
  // where only the reported QoS seq 0 makes the object dirty.)
  service.network().set_loss_probability(rejoiner.node(), acting.node(), 0.0);
  service.run_for(millis(400));
  EXPECT_EQ(acting.resync_fulls_sent() + acting.resync_deltas_sent(), 1u);
  EXPECT_EQ(rejoiner.role(), Role::kBackup);
  EXPECT_GT(rejoiner.highest_transfer_applied(acting.node()), 0u);
  EXPECT_EQ(rejoiner.store().find(3)->spec.window(), downgraded);
  EXPECT_FALSE(rejoiner.qos_downgrade_active(3));
  EXPECT_EQ(rejoiner.qos_last_notice_at(3), notice_at);
  EXPECT_EQ(rejoiner.updates_sent(), updates);
  EXPECT_EQ(rejoiner.recovery_lost_updates(), 0u);
}

}  // namespace
}  // namespace rtpb::core
