// Failover hardening: epoch fencing, the unconditional role guard,
// per-peer ack state, the state-transfer reorder guard, and the
// payload-derived admission frame budget.
//
// The split-brain drills promote a backup WITHOUT crashing the primary —
// the worst case §4.4 never considers: two replicas both believe they are
// primary and the old one keeps transmitting.  Epoch fencing must reject
// the stale incarnation's traffic and depose the zombie; with fencing
// disabled the unconditional role guard must still keep the promoted
// replica's store out of the stale stream's reach.
#include "core/rtpb.hpp"

#include <gtest/gtest.h>

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

// ---------------------------------------------------------------------------
// Wire: the epoch rides on every RTPB message type.
// ---------------------------------------------------------------------------

TEST(EpochWire, EpochRoundTripsOnEveryMessageType) {
  {
    wire::Update u;
    u.object = 3;
    u.version = 9;
    u.epoch = 41;
    const auto d = wire::decode(wire::encode(u));
    ASSERT_TRUE(d && std::holds_alternative<wire::Update>(*d));
    EXPECT_EQ(std::get<wire::Update>(*d).epoch, 41u);
    EXPECT_EQ(wire::epoch_of(*d), 41u);
  }
  {
    const auto d = wire::decode(wire::encode(wire::UpdateAck{3, 9, 42}));
    ASSERT_TRUE(d && std::holds_alternative<wire::UpdateAck>(*d));
    EXPECT_EQ(std::get<wire::UpdateAck>(*d).epoch, 42u);
    EXPECT_EQ(wire::epoch_of(*d), 42u);
  }
  {
    const auto d = wire::decode(wire::encode(wire::RetransmitRequest{3, 9, 43}));
    ASSERT_TRUE(d && std::holds_alternative<wire::RetransmitRequest>(*d));
    EXPECT_EQ(std::get<wire::RetransmitRequest>(*d).epoch, 43u);
    EXPECT_EQ(wire::epoch_of(*d), 43u);
  }
  {
    const auto d = wire::decode(wire::encode(wire::Ping{7, 44}));
    ASSERT_TRUE(d && std::holds_alternative<wire::Ping>(*d));
    EXPECT_EQ(std::get<wire::Ping>(*d).epoch, 44u);
    EXPECT_EQ(wire::epoch_of(*d), 44u);
  }
  {
    const auto d = wire::decode(wire::encode(wire::PingAck{7, 45}));
    ASSERT_TRUE(d && std::holds_alternative<wire::PingAck>(*d));
    EXPECT_EQ(std::get<wire::PingAck>(*d).epoch, 45u);
    EXPECT_EQ(wire::epoch_of(*d), 45u);
  }
  {
    wire::StateTransfer st;
    st.transfer_id = 11;
    st.epoch = 46;
    const auto d = wire::decode(wire::encode(st));
    ASSERT_TRUE(d && std::holds_alternative<wire::StateTransfer>(*d));
    EXPECT_EQ(std::get<wire::StateTransfer>(*d).epoch, 46u);
    EXPECT_EQ(wire::epoch_of(*d), 46u);
  }
  {
    const auto d = wire::decode(wire::encode(wire::StateTransferAck{11, 47}));
    ASSERT_TRUE(d && std::holds_alternative<wire::StateTransferAck>(*d));
    EXPECT_EQ(std::get<wire::StateTransferAck>(*d).epoch, 47u);
    EXPECT_EQ(wire::epoch_of(*d), 47u);
  }
}

TEST(EpochWire, ActiveReplicationMessagesCarryNoEpoch) {
  // The active baseline predates epochs; epoch_of treats it as the
  // bootstrap wildcard so it can never be fenced by accident.
  wire::ActivePrepare p;
  p.sequence = 5;
  p.object = 1;
  const auto d = wire::decode(wire::encode(p));
  ASSERT_TRUE(d && std::holds_alternative<wire::ActivePrepare>(*d));
  EXPECT_EQ(wire::epoch_of(*d), 0u);
  const auto a = wire::decode(wire::encode(wire::ActiveAck{5}));
  ASSERT_TRUE(a && std::holds_alternative<wire::ActiveAck>(*a));
  EXPECT_EQ(wire::epoch_of(*a), 0u);
}

// ---------------------------------------------------------------------------
// Split-brain drills.
// ---------------------------------------------------------------------------

TEST(EpochFencing, DrillPromotionFencesAndDeposesTheOldPrimary) {
  RtpbService service(make_params(31));
  telemetry::Hub& hub = service.simulator().telemetry();
  hub.enable();
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(1));

  // Promote the backup while the primary is alive and transmitting.
  service.backup().promote();
  EXPECT_EQ(service.backup().epoch(), 2u);  // minted above the initial 1
  service.run_for(seconds(1));

  // The stale incarnation's traffic was fenced, never applied...
  EXPECT_GT(service.backup().epoch_rejections(), 0u);
  service.for_each_replica(
      [](const ReplicaServer& r) { EXPECT_EQ(r.cross_epoch_applies(), 0u); });
  // ...and the depose notice carried on the fenced ping's ack made the
  // zombie step down: exactly one primary again, no crash required.
  EXPECT_EQ(service.primary().role(), Role::kBackup);
  EXPECT_EQ(service.primary().step_downs(), 1u);
  EXPECT_EQ(service.primary().epoch(), 2u);  // adopted the epoch that deposed it
  EXPECT_EQ(service.primaries_alive(), 1u);

  // Each fact is reported once per occurrence on every path.
  const std::uint64_t rejected = facts::sum(service, &ReplicaServer::epoch_rejections);
  EXPECT_EQ(facts::counter(hub, "core.epoch.rejected"), rejected);
  EXPECT_EQ(facts::events(hub, "epoch-reject"), rejected);
  EXPECT_EQ(facts::sum(service, &ReplicaServer::step_downs), 1u);
  EXPECT_EQ(facts::counter(hub, "core.epoch.step_downs"), 1u);
  EXPECT_EQ(facts::events(hub, "step-down"), 1u);
}

TEST(EpochFencing, RoleGuardAloneProtectsTheStoreWithFencingOff) {
  ServiceParams params = make_params(32);
  params.config.epoch_fencing = false;
  RtpbService service(params);
  telemetry::Hub& hub = service.simulator().telemetry();
  hub.enable();
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(1));

  const std::uint64_t applied_before = service.backup().updates_applied();
  service.backup().promote();
  service.run_for(seconds(2));

  // Without fencing the zombie never steps down: split brain persists...
  EXPECT_EQ(service.primaries_alive(), 2u);
  EXPECT_EQ(service.primary().step_downs(), 0u);
  // ...but the unconditional role guard still refuses to apply (or ack)
  // the stale update stream on the promoted replica.
  EXPECT_GT(service.backup().role_rejections(), 0u);
  EXPECT_EQ(service.backup().updates_applied(), applied_before);
  service.for_each_replica(
      [](const ReplicaServer& r) { EXPECT_EQ(r.cross_epoch_applies(), 0u); });
  // Only rejected updates record an event; rejected transfers and QoS
  // notices are counted but silent.
  const std::uint64_t rejected = facts::sum(service, &ReplicaServer::role_rejections);
  EXPECT_EQ(facts::counter(hub, "core.role_rejected"), rejected);
  EXPECT_GT(facts::events(hub, "update-role-reject"), 0u);
  EXPECT_LE(facts::events(hub, "update-role-reject"), rejected);
}

TEST(EpochFencing, PartitionedPrimaryIsDeposedThroughTheSurvivingBackup) {
  // N=2 and a genuine partition: the successor cannot reach the primary,
  // declares it dead and promotes — but the old primary keeps running.
  // Its only path to learning of epoch 2 is the surviving second backup,
  // which the new primary recruits.
  RtpbService service(make_params(33, /*backups=*/2));
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(1));

  service.network().set_loss_probability(service.primary().node(),
                                         service.backup().node(), 1.0);
  service.run_for(seconds(4));

  EXPECT_EQ(service.backup().role(), Role::kPrimary);
  EXPECT_EQ(service.primary().role(), Role::kBackup);
  EXPECT_EQ(service.primary().step_downs(), 1u);
  EXPECT_EQ(service.primaries_alive(), 1u);
  service.for_each_replica(
      [](const ReplicaServer& r) { EXPECT_EQ(r.cross_epoch_applies(), 0u); });

  // The chain keeps replicating: the second backup follows the new
  // primary and its store keeps advancing.
  ASSERT_EQ(service.backups()[1]->peers().size(), 1u);
  EXPECT_EQ(service.backups()[1]->peers().front(), service.backup().endpoint());
  const std::uint64_t v = service.backups()[1]->read(1)->version;
  service.run_for(seconds(2));
  EXPECT_GT(service.backups()[1]->read(1)->version, v);
}

TEST(EpochFencing, RecruitedStandbyAdoptsTheNewEpoch) {
  RtpbService service(make_params(34));
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(1));
  service.crash_primary();
  service.run_for(seconds(2));
  ASSERT_EQ(service.backup().role(), Role::kPrimary);
  ASSERT_EQ(service.backup().epoch(), 2u);

  ReplicaServer& standby = service.add_standby();
  service.run_for(seconds(1));
  // The state transfer taught the fresh standby the cluster epoch and its
  // transfer id is tracked for the reorder guard.
  EXPECT_EQ(standby.epoch(), 2u);
  EXPECT_GT(standby.highest_transfer_applied(service.backup().node()), 0u);
  ASSERT_TRUE(standby.read(1).has_value());
  const std::uint64_t v = standby.read(1)->version;
  service.run_for(seconds(1));
  EXPECT_GT(standby.read(1)->version, v);
}

// ---------------------------------------------------------------------------
// Per-peer ack state.
// ---------------------------------------------------------------------------

TEST(PerPeerAcks, FastBackupAckDoesNotCancelRetransmissionForLaggingPeer) {
  // Regression: ack_state_ used to keep ONE shared acked_version per
  // object, so backup[0]'s prompt ack cancelled the retransmission that
  // blacked-out backup[1] depended on — it stayed behind until the next
  // periodic send and, under sustained loss, forever.
  ServiceParams params = make_params(35, /*backups=*/2);
  params.config.ack_every_update = true;
  params.config.watchdog_factor = 1000000;   // no watchdog nacks: the ack
  params.config.ping_max_misses = 1000000;   // path alone must recover it
  RtpbService service(params);
  telemetry::Hub& hub = service.simulator().telemetry();
  hub.enable();
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(millis(500));

  const net::NodeId lagging = service.backups()[1]->node();
  service.network().set_loss_probability(service.primary().node(), lagging, 1.0);
  service.run_for(seconds(1));
  // Backup[0] kept acking throughout the blackout; per-peer state must
  // still show backup[1] behind and keep the retransmission loop armed.
  EXPECT_GT(service.primary().retransmissions_served(), 0u);
  EXPECT_LT(service.primary().peer_acked_version(lagging, 1),
            service.primary().peer_acked_version(service.backups()[0]->node(), 1));

  service.network().set_loss_probability(service.primary().node(), lagging, 0.0);
  service.run_for(seconds(1));
  const std::uint64_t v0 = service.backups()[0]->read(1)->version;
  const std::uint64_t v1 = service.backups()[1]->read(1)->version;
  EXPECT_NEAR(static_cast<double>(v1), static_cast<double>(v0), 5.0);
  EXPECT_GT(service.primary().peer_acked_version(lagging, 1), 0u);
  // Each backup's acks land at the primary as peer-ack events naming it
  // (the last few may still be in flight).
  for (const auto& backup : service.backups()) {
    const std::uint64_t acks = facts::peer_events(hub, "peer-ack", backup->node());
    EXPECT_GT(acks, 0u);
    EXPECT_LE(acks, backup->acks_sent());
  }
  EXPECT_EQ(facts::counter(hub, "core.primary.peer_acks"), facts::events(hub, "peer-ack"));
}

// ---------------------------------------------------------------------------
// State-transfer reorder guard.
// ---------------------------------------------------------------------------

TEST(TransferReorder, LateOldTransferCannotClobberNewerConstraints) {
  // Registrations replicate under a reorder+dup storm, then the
  // constraint table replicates on a clean link.  Delayed copies of the
  // constraint-free registration transfers arrive AFTER the newer
  // constraint-carrying one; the per-sender high-water id must keep them
  // from wiping the table (their object entries still apply).
  ServiceParams params = make_params(36);
  params.config.ping_period = millis(500);  // retries at 1s: the late frames land first
  RtpbService service(params);
  service.start();

  net::LinkFaults storm;
  storm.reorder_probability = 1.0;
  storm.reorder_extra = millis(300);
  storm.duplicate_probability = 1.0;
  service.network().set_faults(service.primary().node(), service.backup().node(), storm);
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());  // transfer id 1
  ASSERT_TRUE(service.register_object(make_spec(2)).ok());  // transfer id 2
  service.network().set_faults(service.primary().node(), service.backup().node(),
                               net::LinkFaults{});
  ASSERT_TRUE(service.add_constraint({1, 2, millis(30)}).ok());  // transfer id 3

  service.run_for(seconds(2));
  // Every transfer (including the delayed ones) has landed by now.
  EXPECT_EQ(service.backup().highest_transfer_applied(service.primary().node()), 3u);
  EXPECT_TRUE(service.backup().read(1).has_value());
  EXPECT_TRUE(service.backup().read(2).has_value());

  // The constraint survived the storm: after failover the new primary
  // still enforces it.
  service.crash_primary();
  service.run_for(seconds(3));
  ASSERT_EQ(service.backup().role(), Role::kPrimary);
  EXPECT_EQ(service.backup().admission().constraints().size(), 1u);
  EXPECT_LE(service.backup().admission().update_period(1), millis(30));
}

// The reorder guard is shared by kStateTransfer and kStateDelta: one
// per-sender id sequence orders both.  In the two cases below a frame is
// held back by a reorder fault on the primary's own link (the guard is
// keyed on the sender node) and lands after a newer frame of the other
// type.  It must not roll back the constraint table or a spec the backup
// already adopted, and it must still be acked.

/// Written every 5 s: never dirty in a sub-second window.
ObjectSpec cold_spec(ObjectId id) {
  ObjectSpec s = make_spec(id);
  s.client_period = seconds(5);
  s.delta_primary = seconds(5);
  s.delta_backup = seconds(15);
  return s;
}

/// Objects 1, 2 and 4 hot, 3 cold; ping_period 500 ms, so transfer retries
/// come 1 s after the original, well after a held-back frame lands.  QoS
/// changes only when a test asks for one.
ServiceParams reorder_params(std::uint64_t seed) {
  ServiceParams p = make_params(seed);
  p.durable = true;
  p.config.ping_period = millis(500);
  p.config.degradation_enabled = false;
  return p;
}

void register_reorder_workload(RtpbService& service) {
  for (ObjectId id : {1u, 2u, 4u}) ASSERT_TRUE(service.register_object(make_spec(id)).ok());
  ASSERT_TRUE(service.register_object(cold_spec(3)).ok());
}

/// Until clear_link(), every frame on the primary↔backup link is delayed
/// by a random 0–300 ms outside FIFO order, so later frames can overtake
/// it.
void hold_back_link(RtpbService& service) {
  net::LinkFaults hold;
  hold.reorder_probability = 1.0;
  hold.reorder_extra = millis(300);
  service.network().set_faults(service.primary().node(), service.backup().node(), hold);
}

void clear_link(RtpbService& service) {
  service.network().set_faults(service.primary().node(), service.backup().node(),
                               net::LinkFaults{});
}

std::uint64_t counter(RtpbService& service, const char* name) {
  return service.simulator().telemetry().registry().counter(name).value();
}

/// After failover the promoted backup enforces exactly the replicated
/// constraint table it held.
void expect_constraint_survives_failover(RtpbService& service) {
  service.crash_primary();
  service.run_for(seconds(3));
  ASSERT_EQ(service.backup().role(), Role::kPrimary);
  EXPECT_EQ(service.backup().admission().constraints().size(), 1u);
  EXPECT_LE(service.backup().admission().update_period(1), millis(30));
}

TEST(TransferReorder, LateOldDeltaCannotClobberNewerTransfer) {
  RtpbService service(reorder_params(38));
  service.simulator().telemetry().enable();
  service.start();
  register_reorder_workload(service);
  service.run_for(seconds(8));  // cold object 3 reaches the backup

  // The backup restarts and asks for a resync over a held-back link: the
  // kStateDelta answering it carries the hot objects at their current
  // (original) specs and an empty constraint table.
  service.crash_backup();
  service.run_for(millis(600));
  hold_back_link(service);
  service.restart_backup(0);
  for (int ms = 0; ms < 400 && service.primary().resync_deltas_sent() == 0; ++ms) {
    service.run_for(millis(1));
  }
  ASSERT_EQ(service.primary().resync_deltas_sent(), 1u);
  clear_link(service);

  // Newer state overtakes it on the clean link: a full transfer carrying
  // the constraint table, and a downgrade of hot object 4.
  ASSERT_TRUE(service.add_constraint({1, 2, millis(30)}).ok());
  ASSERT_TRUE(service.primary().downgrade_object(4));
  const Duration downgraded = service.primary().store().find(4)->spec.window();
  service.run_for(millis(5));
  const std::uint64_t newest = service.backup().highest_transfer_applied(service.primary().node());
  ASSERT_GT(newest, 0u);
  ASSERT_EQ(service.backup().store().find(4)->spec.window(), downgraded);
  ASSERT_EQ(counter(service, "core.backup.state_deltas"), 0u);

  // The held-back delta lands (before any retry could): stale, so the
  // backup applies neither its spec nor its constraint table, but acks it.
  service.run_for(millis(400));
  EXPECT_EQ(counter(service, "core.backup.state_deltas"), 1u);
  EXPECT_EQ(counter(service, "core.backup.state_deltas_stale"), 1u);
  EXPECT_EQ(facts::events(service.simulator().telemetry(), "state-delta"), 1u);
  EXPECT_EQ(service.primary().pending_transfer_count(), 0u);
  EXPECT_EQ(service.backup().store().find(4)->spec.window(), downgraded);
  EXPECT_EQ(service.backup().highest_transfer_applied(service.primary().node()), newest);
  expect_constraint_survives_failover(service);
}

TEST(TransferReorder, LateOldTransferCannotClobberNewerDelta) {
  RtpbService service(reorder_params(39));
  service.simulator().telemetry().enable();
  service.start();
  register_reorder_workload(service);
  service.run_for(seconds(4));

  // Object 5's registration travels as a full transfer on a held-back
  // link: it carries object 5's original spec and an empty constraint
  // table.
  hold_back_link(service);
  ASSERT_TRUE(service.register_object(make_spec(5)).ok());
  clear_link(service);
  const std::uint64_t transfer_id = service.backup().highest_transfer_applied(
                                        service.primary().node()) + 1;

  // Newer state overtakes it: the constraint table, then a resync whose
  // kStateDelta brings object 5 (unknown to the backup until now), then a
  // downgrade of object 5.
  ASSERT_TRUE(service.add_constraint({1, 2, millis(30)}).ok());
  service.run_for(millis(5));
  service.backup().request_resync();
  service.run_for(millis(10));
  ASSERT_EQ(service.primary().resync_deltas_sent(), 1u);
  ASSERT_TRUE(service.backup().store().contains(5));
  ASSERT_TRUE(service.primary().downgrade_object(5));
  const Duration downgraded = service.primary().store().find(5)->spec.window();
  service.run_for(millis(5));
  ASSERT_EQ(service.backup().store().find(5)->spec.window(), downgraded);
  ASSERT_EQ(service.backup().highest_transfer_applied(service.primary().node()),
            transfer_id + 2);
  ASSERT_EQ(counter(service, "core.backup.state_transfers_stale"), 0u);

  // The held-back registration lands: stale, so neither object 5's
  // original spec nor the empty constraint table is applied, but it is
  // acked, which settles its pending transfer before any retry.
  ASSERT_EQ(service.primary().pending_transfer_count(), 1u);
  service.run_for(millis(400));
  EXPECT_EQ(counter(service, "core.backup.state_transfers_stale"), 1u);
  EXPECT_EQ(service.primary().pending_transfer_count(), 0u);
  EXPECT_EQ(service.backup().store().find(5)->spec.window(), downgraded);
  EXPECT_EQ(service.backup().highest_transfer_applied(service.primary().node()),
            transfer_id + 2);
  expect_constraint_survives_failover(service);
}

// ---------------------------------------------------------------------------
// Role changes: leaving a role drops everything the role owned.
// ---------------------------------------------------------------------------

/// Gives `primary` primary-role state to drop: a QoS downgrade of object 1
/// and a registration of object 2 whose transfer to the black-holed
/// `silent` peer stays pending.
void load_primary_role(RtpbService& service, ReplicaServer& primary, net::NodeId silent) {
  ASSERT_TRUE(primary.downgrade_object(1));
  ASSERT_TRUE(primary.qos_downgrade_active(1));
  service.network().set_loss_probability(primary.node(), silent, 1.0);
  ASSERT_TRUE(service.register_object(make_spec(2)).ok());
  ASSERT_EQ(primary.pending_transfer_count(), 1u);
}

/// A replica holding no primary-role state: no update task, transfer,
/// staged update or downgrade.  `client_tasks` is what its client twin
/// keeps on the CPU.
void expect_no_primary_role(const ReplicaServer& r, std::size_t client_tasks) {
  EXPECT_EQ(r.cpu().task_count(), client_tasks);
  EXPECT_EQ(r.pending_transfer_count(), 0u);
  EXPECT_EQ(r.staged_update_count(), 0u);
  EXPECT_FALSE(r.qos_downgrade_active(1));
  EXPECT_FALSE(r.qos_downgrade_active(2));
}

TEST(RoleChange, StepDownDropsThePrimaryRole) {
  // The promotion drill, with a downgrade and a pending transfer held by
  // the zombie when it is deposed: the promoted replica fences its
  // registration of object 2, so that transfer is never acked.
  RtpbService service(make_params(31));
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(1));
  ReplicaServer& old = service.primary();
  ASSERT_TRUE(old.downgrade_object(1));
  service.backup().promote();
  ASSERT_TRUE(service.register_object(make_spec(2)).ok());
  ASSERT_EQ(old.pending_transfer_count(), 1u);
  ASSERT_GT(old.cpu().task_count(), 0u);
  // Stop at the step-down, before anything else can touch the role.
  for (int ms = 0; ms < 2000 && old.step_downs() == 0; ++ms) service.run_for(millis(1));

  ASSERT_EQ(old.step_downs(), 1u);
  ASSERT_EQ(old.role(), Role::kBackup);
  // on_deposed stopped its client twin too, so the CPU is empty.
  expect_no_primary_role(old, 0);
  // A deposed primary sends no further update.
  const std::uint64_t sent = old.updates_sent();
  const std::uint64_t frames = old.update_frames_sent();
  service.run_for(seconds(2));
  EXPECT_EQ(old.updates_sent(), sent);
  EXPECT_EQ(old.update_frames_sent(), frames);
}

TEST(RoleChange, PromotionStopsTheBackupWatchdogs) {
  // Drill promotion with fencing on: the zombie's updates are fenced at
  // the promoted replica, so a watchdog left armed there would stall and
  // NACK.
  RtpbService service(make_params(31));
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(1));
  ReplicaServer& promoted = service.backup();
  ASSERT_GT(promoted.updates_applied(), 0u);

  promoted.promote();
  ASSERT_EQ(promoted.role(), Role::kPrimary);
  // No peer yet, so no update task: only the activated client twin runs.
  expect_no_primary_role(promoted, 1);
  const std::uint64_t nacks = promoted.retransmit_requests_sent();
  service.run_for(seconds(2));
  EXPECT_EQ(promoted.retransmit_requests_sent(), nacks);
  EXPECT_EQ(service.primaries_alive(), 1u);
}

TEST(RoleChange, RestartDropsTheCrashedPrimaryRole) {
  ServiceParams params = make_params(38);
  params.durable = true;
  RtpbService service(params);
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(1));
  ReplicaServer& old = service.primary();
  load_primary_role(service, old, service.backup().node());
  // Client tasks for objects 1 and 2, update tasks for both.
  const std::size_t tasks = old.cpu().task_count();
  ASSERT_EQ(tasks, 4u);

  // A crash stops the role's timers but keeps what it holds, role
  // included, until the restart.
  service.crash_primary();
  EXPECT_EQ(old.role(), Role::kPrimary);
  EXPECT_EQ(old.cpu().task_count(), tasks);
  EXPECT_EQ(old.pending_transfer_count(), 1u);
  EXPECT_EQ(old.staged_update_count(), 0u);
  EXPECT_TRUE(old.qos_downgrade_active(1));
  service.network().set_loss_probability(old.node(), service.backup().node(), 0.0);
  service.run_for(seconds(3));
  ASSERT_EQ(service.backup().role(), Role::kPrimary);

  service.restart_primary();
  EXPECT_EQ(old.role(), Role::kBackup);
  expect_no_primary_role(old, 0);
  const std::uint64_t sent = old.updates_sent();
  service.run_for(seconds(2));
  EXPECT_EQ(old.updates_sent(), sent);
  EXPECT_EQ(service.primaries_alive(), 1u);
}

TEST(RoleChange, RestartDropsTheCrashedBackupRole) {
  ServiceParams params = make_params(39);
  params.durable = true;
  RtpbService service(params);
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(1));
  ReplicaServer& backup = service.backup();

  service.crash_backup();
  EXPECT_EQ(backup.role(), Role::kBackup);
  service.run_for(seconds(1));
  const std::uint64_t nacks = backup.retransmit_requests_sent();
  service.restart_backup(0);
  EXPECT_EQ(backup.role(), Role::kBackup);
  expect_no_primary_role(backup, 0);
  // The rejoiner resyncs and applies again; its watchdogs re-arm from the
  // transfer, so the live stream draws no NACK.
  const std::uint64_t applied = backup.updates_applied();
  service.run_for(seconds(2));
  EXPECT_GT(backup.updates_applied(), applied);
  EXPECT_EQ(backup.retransmit_requests_sent(), nacks);
  expect_no_primary_role(backup, 0);
}

// ---------------------------------------------------------------------------
// Admission frame budget ℓ.
// ---------------------------------------------------------------------------

TEST(FrameBudget, DerivedFromLargestRegisteredPayload) {
  RtpbService service(make_params(37));
  service.start();
  EXPECT_EQ(service.primary().frame_budget(), 1024u);  // historical floor
  const Duration ell_small = service.primary().admission().link_delay_bound();

  // A small object keeps the floor (N=1 behaviour preserved)...
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  EXPECT_EQ(service.primary().frame_budget(), 1024u);
  EXPECT_EQ(service.primary().admission().link_delay_bound(), ell_small);

  // ...a 32 KiB object grows the frame and thus ℓ for every later
  // admission (10 Mb/s default link: tx alone adds ~25 ms).
  ObjectSpec big = make_spec(2);
  big.size_bytes = 32768;
  big.delta_primary = millis(50);
  big.delta_backup = seconds(2);
  ASSERT_TRUE(service.register_object(big).ok());
  EXPECT_EQ(service.primary().frame_budget(), 32768u);
  const Duration ell_big = service.primary().admission().link_delay_bound();
  EXPECT_GT(ell_big, ell_small);
  EXPECT_EQ(service.link_delay_bound(), ell_big);

  // The §4.3 period formula r = (δ − ℓ)/slack now sees the bigger ℓ: an
  // identical spec admitted after the growth gets a shorter period.
  ASSERT_TRUE(service.register_object(make_spec(3)).ok());
  const Duration period_after = service.primary().admission().update_period(3);
  // Compare against a service that never saw the big object.
  RtpbService control(make_params(37));
  control.start();
  ASSERT_TRUE(control.register_object(make_spec(1)).ok());
  ASSERT_TRUE(control.register_object(make_spec(3)).ok());
  EXPECT_LT(period_after, control.primary().admission().update_period(3));
}

}  // namespace
}  // namespace rtpb::core
