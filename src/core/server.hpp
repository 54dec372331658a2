// The RTPB replica server — the paper's primary and backup servers in one
// role-switching class (a backup *becomes* the primary at failover, §4.4).
//
// As PRIMARY it:
//   - accepts client registrations through admission control (§4.2),
//   - hosts the client application's periodic update tasks on its CPU,
//   - runs one periodic update-transmission task per admitted object
//     (period r_i from admission; normal or compressed scheduling, §4.3),
//   - replicates registrations to the backup via acknowledged state
//     transfer, answers retransmission requests, optionally tracks
//     per-update acks (ablation mode),
//   - exchanges heartbeats with the backup.
//
// As BACKUP it:
//   - applies UPDATE messages to its object store,
//   - runs a per-object watchdog that requests retransmission when the
//     update stream stalls (§4.3: "retransmission is triggered by a
//     request from the backup"),
//   - exchanges heartbeats with the primary and, when the primary is
//     declared dead, promotes itself: rewrites the name-service entry,
//     activates the local (backup) client application, and can recruit a
//     fresh backup via full state transfer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/admission.hpp"
#include "core/degradation.hpp"
#include "core/heartbeat.hpp"
#include "core/metrics.hpp"
#include "core/name_service.hpp"
#include "core/object_store.hpp"
#include "core/types.hpp"
#include "core/wire.hpp"
#include "net/network.hpp"
#include "sched/cpu.hpp"
#include "sim/simulator.hpp"
#include "store/durable_store.hpp"
#include "telemetry/facts.hpp"
#include "xkernel/fraglite.hpp"
#include "xkernel/graph.hpp"

namespace rtpb::core {

/// UDP port the RTPB anchor protocol binds on every replica.
inline constexpr net::Port kRtpbPort = 5000;

enum class Role { kPrimary, kBackup };
[[nodiscard]] inline const char* role_name(Role r) {
  return r == Role::kPrimary ? "primary" : "backup";
}

/// One group's stable-timestamp frontier: the minimum origin timestamp its
/// successor backup has applied over the group's objects.  A cross-group
/// constraint δ_ij holds at t when t − F ≤ δ_ij on both home groups.
struct FrontierRecord {
  std::uint32_t shard = 0;
  TimePoint stable_ts{};
};

/// The protocol facts a ReplicaServer reports, each at one
/// ReplicaServer::emit() call; fact_sinks() says which registry
/// instrument, Hub event and flight record it feeds besides the total the
/// server's getters read.  A promotion, a step-down and a restart feed the
/// trace digest.
enum class Fact : std::uint8_t {
  kWrite, kWriteRelease, kWriteStart,  // primary: client write (+ its job history)
  kXmitRelease, kXmitStart,            // primary: update transmission job history
  kUpdateSend, kRetransmit, kLossInjected, kUpdateFrame, kBatchFrame, kShed,
  kRetxRequest, kAckReceived, kPeerDead, kTransferGiveUp,
  kQosDowngrade, kQosRestore,                               // primary: renegotiation
  kPromote, kStepDown, kDemoted, kEpochChange, kCrash,      // role and epoch
  kEpochReject, kUpdateRoleReject, kRoleReject,             // fencing
  kApply, kStaleUpdate, kUnknownObject, kCrossEpochApply,   // backup: updates
  kAckSent, kNack, kDowngradeReceived, kRestoreReceived,
  kStateTransfer, kStaleTransfer, kStateDelta, kStaleDelta, // backup: transfers
  kFrontier,
  kWalRecord, kCheckpoint, kFailStop, kWalReplay, kTornWalTail,  // durability
  kTornCheckpointTail, kRestart, kLostUpdates,
  kResyncRequest, kResyncFull, kResyncDelta, kDeltaEntries,      // resync
  kSmoothedRtt, kRto, kBackoffLevel, kActiveDowngrades, kOverloaded,  // gauge readings
  kCount
};

constexpr telemetry::FactSinks<Fact> fact_sinks(Fact f) {
  using telemetry::FactArg;
  using telemetry::FlightKind;
  switch (f) {
    case Fact::kWrite: return {.counter = "core.primary.writes", .event = "write",
                               .histogram = "core.primary.write_response_ms", .duration = true};
    case Fact::kWriteRelease: return {.event = "write-release"};
    case Fact::kWriteStart: return {.event = "write-start"};
    case Fact::kXmitRelease: return {.event = "xmit-release"};
    case Fact::kXmitStart: return {.event = "xmit-start"};
    case Fact::kUpdateSend: return {.counter = "core.primary.update_sends", .event = "update-send",
                                    .flight = FlightKind::kUpdateSend};
    case Fact::kRetransmit: return {.counter = "core.primary.retransmissions",
                                    .event = "update-retx", .flight = FlightKind::kUpdateSend,
                                    .arg = FactArg::kOne};
    case Fact::kLossInjected: return {.counter = "core.primary.loss_injected",
                                      .event = "update-loss-injected"};
    case Fact::kUpdateFrame: return {};
    case Fact::kBatchFrame: return {.counter = "core.primary.batch_frames", .event = "batch-send",
                                    .flight = FlightKind::kUpdateBatch, .arg = FactArg::kValue,
                                    .histogram = "core.primary.batch_entries"};
    case Fact::kShed: return {.counter = "core.degrade.shed", .event = "update-shed",
                              .flight = FlightKind::kShed, .arg = FactArg::kValue,
                              .duration = true};
    case Fact::kRetxRequest: return {.counter = "core.primary.retransmit_requests",
                                     .event = "retx-request"};
    case Fact::kAckReceived: return {.counter = "core.primary.peer_acks", .event = "peer-ack",
                                     .flight = FlightKind::kAck, .arg = FactArg::kValue};
    case Fact::kPeerDead: return {.counter = "core.primary.dead_peers", .event = "dead-peer"};
    case Fact::kTransferGiveUp: return {.counter = "core.degrade.transfer_give_ups"};
    case Fact::kQosDowngrade: return {.counter = "core.degrade.downgrades",
                                      .event = "qos-downgrade", .flight = FlightKind::kQosDowngrade,
                                      .arg = FactArg::kValue, .duration = true};
    case Fact::kQosRestore: return {.counter = "core.degrade.restores", .event = "qos-restore",
                                    .flight = FlightKind::kQosRestore, .arg = FactArg::kValue,
                                    .duration = true};
    case Fact::kPromote: return {.counter = "core.failovers", .event = "promote",
                                 .flight = FlightKind::kRoleChange, .arg = FactArg::kOne,
                                 .label = "promote", .gauge = "core.epoch", .digest = true};
    case Fact::kStepDown: return {.counter = "core.epoch.step_downs", .event = "step-down",
                                  .digest = true};
    case Fact::kDemoted: return {.flight = FlightKind::kRoleChange, .label = "step-down"};
    case Fact::kEpochChange: return {.flight = FlightKind::kEpoch};
    case Fact::kCrash: return {.flight = FlightKind::kCrash};
    case Fact::kEpochReject: return {.counter = "core.epoch.rejected", .event = "epoch-reject"};
    case Fact::kUpdateRoleReject: return {.counter = "core.role_rejected",
                                          .event = "update-role-reject"};
    case Fact::kRoleReject: return {.counter = "core.role_rejected"};
    case Fact::kApply: return {.counter = "core.backup.applies", .event = "update-apply",
                               .flight = FlightKind::kUpdateApply,
                               .histogram = "core.backup.apply_latency_ms", .duration = true};
    case Fact::kStaleUpdate: return {.counter = "core.backup.stale", .event = "update-stale"};
    case Fact::kUnknownObject: return {.counter = "core.backup.unknown_object",
                                       .event = "update-unknown"};
    case Fact::kCrossEpochApply: return {.counter = "core.epoch.cross_epoch_applies"};
    case Fact::kAckSent: return {};
    case Fact::kNack: return {.counter = "core.backup.nacks", .event = "watchdog-nack",
                              .flight = FlightKind::kRetransmitReq};
    case Fact::kDowngradeReceived: return {.counter = "core.degrade.downgrades_received",
                                           .event = "qos-downgrade-recv", .duration = true};
    case Fact::kRestoreReceived: return {.counter = "core.degrade.restores_received",
                                         .event = "qos-restore-recv"};
    case Fact::kStateTransfer: return {.counter = "core.backup.state_transfers",
                                       .event = "state-transfer"};
    case Fact::kStaleTransfer: return {.counter = "core.backup.state_transfers_stale",
                                       .event = "state-transfer", .also = Fact::kStateTransfer};
    case Fact::kStateDelta: return {.counter = "core.backup.state_deltas", .event = "state-delta"};
    case Fact::kStaleDelta: return {.counter = "core.backup.state_deltas_stale",
                                    .event = "state-delta", .also = Fact::kStateDelta};
    case Fact::kFrontier: return {.counter = "core.shard.frontier_received",
                                  .event = "frontier-recv"};
    case Fact::kWalRecord: return {.counter = "core.store.wal_records"};
    case Fact::kCheckpoint: return {.counter = "core.store.checkpoints"};
    case Fact::kFailStop: return {.counter = "core.store.fail_stops"};
    case Fact::kWalReplay: return {.counter = "core.store.replayed_wal_records", .sums = true};
    case Fact::kTornWalTail: return {.counter = "core.store.torn_wal_tails"};
    case Fact::kTornCheckpointTail: return {.counter = "core.store.torn_checkpoint_tails"};
    case Fact::kRestart: return {.counter = "core.store.recoveries", .event = "restart",
                                 .flight = FlightKind::kRoleChange, .arg = FactArg::kValue,
                                 .label = "restart", .digest = true};
    case Fact::kLostUpdates: return {.sums = true};
    case Fact::kResyncRequest: return {.counter = "core.store.resync_requests"};
    case Fact::kResyncFull: return {.counter = "core.store.resync_fulls"};
    case Fact::kResyncDelta: return {.counter = "core.store.resync_deltas",
                                     .event = "resync-delta"};
    case Fact::kDeltaEntries: return {.counter = "core.store.delta_entries", .sums = true};
    case Fact::kSmoothedRtt: return {.gauge = "core.degrade.rtt_ms", .duration = true};
    case Fact::kRto: return {.gauge = "core.degrade.rto_ms", .duration = true};
    case Fact::kBackoffLevel: return {.gauge = "core.degrade.backoff_level"};
    case Fact::kActiveDowngrades: return {.gauge = "core.degrade.active_downgrades"};
    case Fact::kOverloaded: return {.gauge = "core.degrade.overloaded"};
    case Fact::kCount: break;
  }
  return {};
}

class ReplicaServer {
 public:
  struct Hooks {
    /// Fired when this (backup) server promotes itself to primary.
    std::function<void()> on_promoted;
    /// Fired on a backup that detected the primary's death but is NOT the
    /// designated successor (multi-backup deployments): it should re-peer
    /// with the new primary once the name service is rewritten.
    std::function<void()> on_primary_lost;
    /// Fired on a primary that learned of a higher replication epoch and
    /// stepped down (split-brain resolution): the hosting service should
    /// deactivate this replica's client application.
    std::function<void()> on_deposed;
  };

  ReplicaServer(sim::Simulator& sim, net::Network& network, NameService& names,
                ServiceConfig config, Metrics& metrics, Role role, std::string service_name);
  ~ReplicaServer();

  ReplicaServer(const ReplicaServer&) = delete;
  ReplicaServer& operator=(const ReplicaServer&) = delete;

  [[nodiscard]] net::NodeId node() const { return stack_.node(); }
  [[nodiscard]] net::Endpoint endpoint() const { return {node(), kRtpbPort}; }
  [[nodiscard]] Role role() const { return role_; }
  [[nodiscard]] sched::Cpu& cpu() { return cpu_; }
  [[nodiscard]] const sched::Cpu& cpu() const { return cpu_; }
  [[nodiscard]] const ObjectStore& store() const { return store_; }
  [[nodiscard]] const AdmissionController& admission() const { return *admission_; }
  [[nodiscard]] const ServiceConfig& config() const { return config_; }

  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  /// Fault injection: change the §5 injected update-loss probability at
  /// runtime (applies to subsequent update transmissions).
  void set_update_loss_probability(double p) {
    RTPB_EXPECTS(p >= 0.0 && p <= 1.0);
    config_.update_loss_probability = p;
  }
  /// Shard-targeted fault injection: override the loss probability for ONE
  /// object's update stream (takes precedence over the global knob).  The
  /// chaos harness uses this to storm a single shard's objects while the
  /// rest of the workload replicates cleanly.
  void set_object_loss_probability(ObjectId id, double p) {
    RTPB_EXPECTS(p >= 0.0 && p <= 1.0);
    objects_[id].loss_override = p;
  }
  void clear_object_loss_probability(ObjectId id) { objects_[id].loss_override.reset(); }

  // ---- cross-group frontier (parallel scale-out) ----
  /// Apply a peer group's stable-timestamp frontier, delivered out-of-band
  /// by the parallel driver's window-barrier exchange (peer groups live in
  /// DIFFERENT simulators, so the record never crosses this group's
  /// network).  Merged monotonically, so a stale or repeated record is
  /// harmless.  Dropped while crashed, like any frame.
  void ingest_frontier(const FrontierRecord& f);
  /// Latest frontier ingested for `shard`; TimePoint::zero() if none.
  [[nodiscard]] TimePoint peer_frontier(std::uint32_t shard) const;
  [[nodiscard]] const std::map<std::uint32_t, TimePoint>& peer_frontiers() const {
    return peer_frontiers_;
  }

  /// Primary: the backup(s) updates replicate to.  The first entry is the
  /// heartbeat partner / failover successor.
  void add_peer(net::Endpoint peer);
  [[nodiscard]] const std::vector<net::Endpoint>& peers() const { return peers_; }

  /// Start serving: publish the name (primary), start CPU and heartbeats.
  void start();
  /// Crash the server: halts the CPU, closes the port, marks the node
  /// down.  Used for failure injection.
  void crash();
  [[nodiscard]] bool crashed() const { return crashed_; }

  // ---- durability & crash recovery ----
  /// Attach the write-ahead-logged backing store.  Must happen before
  /// start(); a null store (the default) keeps the replica purely
  /// in-memory with byte-identical behaviour.
  void attach_storage(store::DurableStore* storage) {
    RTPB_EXPECTS(!started_);
    storage_ = storage;
  }
  [[nodiscard]] store::DurableStore* durable() { return storage_; }
  /// Crashed replica only: power-cycle the storage devices, replay the
  /// last checkpoint plus the WAL tail into the object store, re-derive
  /// epoch and transfer-id high water from the persisted metadata, and
  /// come back up as an orphaned backup (the service layer re-points it
  /// at the acting primary and drives the resync).  Requires attached
  /// storage.
  void restart();
  /// Rejoined backup: announce the recovered version vector to the first
  /// peer and ask for everything newer (kResyncRequest → kStateDelta or
  /// full kStateTransfer).  Retries on a timer until a transfer arrives.
  void request_resync();
  /// Client-acked updates the recovered state was found to be missing
  /// (durability oracle: must stay 0 under log-before-apply).
  [[nodiscard]] std::uint64_t recovery_lost_updates() const { return count(Fact::kLostUpdates); }
  [[nodiscard]] std::uint64_t recoveries() const { return count(Fact::kRestart); }
  [[nodiscard]] std::uint64_t resync_requests_sent() const { return count(Fact::kResyncRequest); }
  [[nodiscard]] std::uint64_t resync_deltas_sent() const { return count(Fact::kResyncDelta); }
  [[nodiscard]] std::uint64_t resync_fulls_sent() const { return count(Fact::kResyncFull); }
  /// Object entries shipped inside kStateDelta frames (O(dirty set), the
  /// incremental-rejoin win the recovery bench asserts).
  [[nodiscard]] std::uint64_t delta_entries_sent() const { return count(Fact::kDeltaEntries); }

  // ---- client-facing interface (Mach IPC in the paper; a co-located
  // ---- call here).  Valid only while role() == kPrimary.
  AdmissionResult register_object(const ObjectSpec& spec);
  AdmissionStatus add_constraint(const InterObjectConstraint& c);
  /// Record a client write that completed at `info.finish` (the client
  /// app's CPU job callback funnels here).
  void local_write(ObjectId id, std::span<const std::uint8_t> value, const sched::JobInfo& info);
  /// Read an object (either role; failover reads come through here).
  [[nodiscard]] std::optional<ObjectState> read(ObjectId id) const;
  /// Look at an object without copying it (observers reading versions).
  /// Valid until the replica next inserts, erases or restores it.
  [[nodiscard]] const ObjectState* peek(ObjectId id) const { return store_.peek(id); }

  // ---- failover ----
  /// Backup only: promote to primary immediately (normally triggered by
  /// the failure detector; exposed for drills).
  void promote();
  /// New primary: establish a (further) backup by full state transfer.
  /// Existing peers are kept; the new endpoint is appended if absent.
  void recruit_backup(net::Endpoint new_backup);
  /// Backup: whether this replica promotes itself when the primary dies
  /// (the designated successor) or defers via Hooks::on_primary_lost.
  void set_successor(bool is_successor) { successor_ = is_successor; }
  /// Backup (non-successor, after failover): forget the dead primary and
  /// follow `new_primary` instead; restarts the heartbeat.
  void follow_new_primary(net::Endpoint new_primary);

  // ---- runtime QoS renegotiation (graceful degradation) ----
  /// Primary: loosen `id`'s temporal constraint (its window δ_iB − δ_iP
  /// doubles, passed through admission's suggestion machinery) and
  /// notify backups + client with kConstraintDowngrade.
  /// Normally driven by the DegradationController's overload detection;
  /// exposed for drills and tests.  Returns false if the object is
  /// unknown, already downgraded, or no feasible relaxation exists.
  bool downgrade_object(ObjectId id);
  /// Primary: re-admit `id`'s original (pre-downgrade) constraint and
  /// notify with kConstraintRestore.  Callers gate on hysteresis; this
  /// only checks feasibility.  Returns false if not downgraded.
  bool restore_object(ObjectId id);
  /// Whether `id` currently runs under a downgraded constraint issued by
  /// THIS replica as primary.
  [[nodiscard]] bool qos_downgrade_active(ObjectId id) const;
  /// When the last QoS notice (downgrade or restore) for `id` was sent
  /// (primary) or received (backup); TimePoint::zero() if never.
  [[nodiscard]] TimePoint qos_last_notice_at(ObjectId id) const;
  [[nodiscard]] std::uint64_t qos_downgrades_sent() const { return count(Fact::kQosDowngrade); }
  [[nodiscard]] std::uint64_t qos_restores_sent() const { return count(Fact::kQosRestore); }
  [[nodiscard]] std::uint64_t qos_downgrades_received() const {
    return count(Fact::kDowngradeReceived);
  }
  /// Updates dropped by slack-aware shedding while overloaded.
  [[nodiscard]] std::uint64_t updates_shed() const { return count(Fact::kShed); }
  /// Updates currently staged for the open batch window (send-queue depth
  /// as seen by overload detection; health-feed instrumentation).
  [[nodiscard]] std::size_t staged_update_count() const { return primary_.staged.size(); }
  /// Transfers abandoned after transfer_retry_limit attempts (the silent
  /// peer was reported suspected-down).
  [[nodiscard]] std::uint64_t transfer_give_ups() const { return count(Fact::kTransferGiveUp); }
  /// The overload detector (null until start()).
  [[nodiscard]] const DegradationController* degradation() const { return degrade_.get(); }

  // ---- epoch fencing ----
  /// Current replication epoch (incarnation).  The first primary starts at
  /// 1; each promote() mints a higher epoch; backups track the highest
  /// epoch seen on accepted traffic.  0 = not yet learned (fresh standby).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// Messages dropped because they carried a lower (stale) epoch.
  [[nodiscard]] std::uint64_t epoch_rejections() const { return count(Fact::kEpochReject); }
  /// Updates/transfers dropped because this replica is not a backup.
  [[nodiscard]] std::uint64_t role_rejections() const {
    return count(Fact::kUpdateRoleReject) + count(Fact::kRoleReject);
  }
  /// Updates this replica APPLIED although they were stamped with a lower
  /// epoch than its own — the split-brain hazard.  Always 0 with epoch
  /// fencing on; the chaos no-cross-epoch-apply oracle asserts it.
  [[nodiscard]] std::uint64_t cross_epoch_applies() const { return count(Fact::kCrossEpochApply); }
  /// In-flight state transfers this server is driving (input to the
  /// explorer's canonical state hash).
  [[nodiscard]] std::size_t pending_transfer_count() const { return primary_.transfers.size(); }
  /// Times this replica, as primary, stepped down after seeing a higher
  /// epoch (it had been deposed without noticing).
  [[nodiscard]] std::uint64_t step_downs() const { return count(Fact::kStepDown); }

  // ---- introspection / stats ----
  /// Update transmissions, retransmissions included.
  [[nodiscard]] std::uint64_t updates_sent() const {
    return count(Fact::kUpdateSend) + count(Fact::kRetransmit);
  }
  /// Wire frames carrying update payloads (kUpdate + kUpdateBatch).  With
  /// batching on this lags updates_sent(): many updates ride one frame.
  [[nodiscard]] std::uint64_t update_frames_sent() const {
    return count(Fact::kUpdateFrame) + count(Fact::kBatchFrame);
  }
  [[nodiscard]] std::uint64_t updates_loss_injected() const { return count(Fact::kLossInjected); }
  [[nodiscard]] std::uint64_t updates_applied() const { return count(Fact::kApply); }
  /// Updates not applied: version-stale ones and ones for unknown objects.
  [[nodiscard]] std::uint64_t stale_updates() const {
    return count(Fact::kStaleUpdate) + count(Fact::kUnknownObject);
  }
  [[nodiscard]] std::uint64_t retransmit_requests_sent() const { return count(Fact::kNack); }
  [[nodiscard]] std::uint64_t retransmissions_served() const { return count(Fact::kRetransmit); }
  [[nodiscard]] std::uint64_t acks_sent() const { return count(Fact::kAckSent); }
  /// Per-peer failure detector, or nullptr if none exists for `peer`.
  [[nodiscard]] const FailureDetector* detector(net::NodeId peer) const;
  /// Newest version of `id` acknowledged by `peer` (ack mode; 0 if none).
  [[nodiscard]] std::uint64_t peer_acked_version(net::NodeId peer, ObjectId id) const;
  /// Highest state-transfer id applied from `sender` (0 if none) — the
  /// reorder guard for constraint tables and watchdog periods.
  [[nodiscard]] std::uint64_t highest_transfer_applied(net::NodeId sender) const;
  /// Frame budget ℓ is derived from: max(1 KiB, largest registered payload).
  [[nodiscard]] std::size_t frame_budget() const { return frame_budget_; }
  /// The FRAGLITE layer, or nullptr when fragmentation is disabled.
  [[nodiscard]] const xkernel::FragLite* frag() const { return frag_.get(); }
  /// The x-kernel stack (oracle/test observation: transport checksum
  /// failures, frame counters).
  [[nodiscard]] const xkernel::HostStack& stack() const { return stack_; }
  [[nodiscard]] TimePoint promoted_at() const { return promoted_at_; }

 private:
  [[nodiscard]] std::uint64_t count(Fact f) const { return facts_.count(f); }
  /// Report `f` about `object` at `version` under this replica's epoch.
  /// `span` is the update it concerns and `value` its scalar; `at`
  /// back-dates the Hub event (job history) and defaults to now.
  void emit(Fact f, ObjectId object = 0, std::uint64_t version = 0,
            telemetry::SpanId span = telemetry::kNoSpan, std::int64_t value = 0,
            std::optional<TimePoint> at = std::nullopt) {
    facts_.emit(f, {.a = object,
                    .b = version,
                    .c = epoch_,
                    .value = value,
                    .span = span,
                    .node = node(),
                    .at = at});
  }

  /// Primary-side record of an active downgrade: the original spec to
  /// restore, and when the downgrade was issued.
  struct QosState {
    ObjectSpec original;
    TimePoint since{};
  };
  /// Everything this replica tracks per object besides its ObjectState,
  /// grouped by lifetime.  It lives beside store_, not in it: restart()
  /// replaces the store wholesale and ObjectStore hands out copies, and
  /// timer handles must not travel with either.  A default record means
  /// "nothing tracked".
  struct ObjectRecord {
    struct Primary {  ///< dropped whole by leave_primary()
      /// The update-transmission task (§4.3) and the period it was added
      /// with; kInvalidTask when none runs.
      sched::TaskId task = sched::kInvalidTask;
      Duration task_period{};
      /// ack_every_update mode.  Which versions each peer acked lives in
      /// PeerState — one shared slot let the fastest backup's ack cancel
      /// retransmission for peers that never received the update.
      sim::EventHandle ack_timeout;
      std::optional<QosState> downgrade;  ///< the active downgrade, if any
    } primary;
    struct Backup {  ///< dropped whole by leave_backup()
      Duration watchdog_period{};  ///< the watchdog is armed only while > 0
      sim::EventHandle watchdog;
    } backup;
    struct Incarnation {  ///< dropped whole by restart()
      /// Newest renegotiation seq applied (backup-side reorder guard;
      /// carried into a promotion so a new primary's notices stay newer).
      std::uint64_t qos_applied_seq = 0;
      /// Store version at crash() — everything the replica could have
      /// acked, which restart()'s durable-recovery oracle checks the
      /// recovered image against.  Storage attached only.
      std::uint64_t version_at_crash = 0;
    } life;
    /// The replica's, kept across restarts: when the last QoS notice was
    /// sent or received (the no-silent-violation oracle reads it), and the
    /// §5 loss-injection override the chaos harness sets.
    TimePoint qos_notice_at{};
    std::optional<double> loss_override;

    /// crash(): the role timers stop, what they guard stays.
    void stop() {
      backup.watchdog.cancel();
      primary.ack_timeout.cancel();
    }
  };
  /// Registrations / state transfers not yet acknowledged by every peer.
  struct PendingTransfer {
    std::vector<ObjectId> ids;
    std::set<net::NodeId> awaiting;
    std::uint32_t attempts = 0;  ///< retries so far (capped by transfer_retry_limit)
    bool delta = false;          ///< encoded as kStateDelta, not kStateTransfer
  };
  /// What the primary role owns besides its per-object fields.
  struct PrimaryRole {
    /// Objects whose update transmissions fell due inside the open batch
    /// window, in staging order (dedup'd: a second send of the same object
    /// before the flush collapses onto the staged entry, which reads the
    /// store at flush time and so carries the newest version anyway).
    std::vector<ObjectId> staged;
    sim::EventHandle batch_flush;
    std::map<std::uint64_t, PendingTransfer> transfers;
    sim::EventHandle transfer_retry;
    sim::EventHandle qos_tick;

    /// crash(): the timers stop and the batch empties; the transfers stay
    /// (the explorer's state hash counts them).
    void stop() {
      transfer_retry.cancel();
      qos_tick.cancel();
      batch_flush.cancel();
      staged.clear();
    }
  };
  /// What one incarnation owns, from start() or restart() until crash().
  struct Incarnation {
    /// Highest transfer id applied per sender: a reordered older transfer
    /// must not clobber newer constraint tables / watchdog periods.
    std::map<net::NodeId, std::uint64_t> transfer_high_water;
    /// A rejoined backup's resync, retried until a transfer lands.
    sim::EventHandle resync_retry;
    std::uint32_t resync_attempts = 0;
    bool resync_pending = false;
  };
  /// Per-peer replication state (the 1→N generalisation): each
  /// backup gets its own acked-version table and failure detector.
  struct PeerState {
    std::map<ObjectId, std::uint64_t> acked;
    std::unique_ptr<FailureDetector> detector;
  };

  void handle_message(xkernel::Message& msg, const xkernel::MsgAttrs& attrs);
  /// One handler per decoded message type (handle_message visits the
  /// decoded variant).  The non-const overloads move state-transfer
  /// values out rather than copying them; update values are borrowed from
  /// the frame, and batch entries are applied strictly in order.
  void handle(const wire::Update& u, net::Endpoint from);
  void handle(const wire::UpdateBatch& b, net::Endpoint from);
  void handle(const wire::UpdateAck& a, net::Endpoint from);
  void handle(const wire::RetransmitRequest& r, net::Endpoint from);
  void handle(const wire::Ping& p, net::Endpoint from);
  void handle(const wire::PingAck& p, net::Endpoint from);
  void handle(wire::StateTransfer& st, net::Endpoint from);
  void handle(const wire::StateTransferAck& ack, net::Endpoint from);
  void handle(const wire::ResyncRequest& rq, net::Endpoint from);
  void handle(wire::StateDelta& sd, net::Endpoint from);
  /// The one apply body behind both transfer frames: re-peer on an unknown
  /// sender, the per-sender transfer-id reorder guard, version-gated
  /// applies (values moved out of `entries`), always ack.  `delta` only
  /// picks the telemetry names.
  void apply_transfer(std::uint64_t transfer_id, std::vector<wire::StateEntry>& entries,
                      std::vector<InterObjectConstraint>& constraints, std::uint64_t epoch,
                      bool delta, net::Endpoint from);
  enum class ApplyOutcome : std::uint8_t { kStale, kApplied, kFailStopped };
  /// The one backup apply body behind update frames and transfer entries:
  /// log a newer version before applying it, apply it if newer, count a
  /// cross-epoch apply and feed the consistency metrics.  kFailStopped
  /// means the log append crashed this replica: the caller must neither
  /// apply nor ack.
  ApplyOutcome apply_remote(ObjectId id, std::uint64_t version, TimePoint origin_ts,
                            std::span<const std::uint8_t> value, std::uint64_t epoch);
  void handle(const wire::ConstraintDowngrade& d, net::Endpoint from);
  void handle(const wire::ConstraintRestore& rs, net::Endpoint from);
  /// The one backup-side apply body behind both QoS notices; a restore
  /// carries no δ_P.
  void apply_qos_notice(ObjectId id, std::uint64_t qos_seq, Duration update_period,
                        std::optional<Duration> delta_primary, Duration delta_backup);
  /// The one primary-side body behind downgrade_object and
  /// restore_object: move `id` from its current spec to `to` through
  /// admission (re-admitting the current spec if `to` does not fit), adopt
  /// it in the store, metrics and update tasks, stamp the next QoS seq and
  /// send every peer the notice.  `downgrade` picks the notice, the fact
  /// and admission's suggestion fallback.
  bool renegotiate(ObjectId id, ObjectSpec to, bool downgrade);
  /// Active-replication traffic never targets an RTPB replica: dropped.
  void handle(const wire::ActivePrepare& p, net::Endpoint from);
  void handle(const wire::ActiveAck& a, net::Endpoint from);

  void send_to(net::Endpoint to, Bytes payload);
  /// Fan-out building block: the message is taken by value, so sending one
  /// encoded frame to N peers passes N copies that all share the same body
  /// buffer — only the per-peer protocol headers are materialised.
  void send_to(net::Endpoint to, xkernel::Message msg);
  /// Encode the staged object updates into one kUpdateBatch frame and fan
  /// it out to every peer (encode-once; bodies shared across peers).
  void flush_staged_updates();
  /// `job`, when given, is the transmission job that triggered this send;
  /// its release/start times are attached to the update's telemetry span.
  /// `targets`, when given, restricts the send to those peers (targeted
  /// retransmission to lagging backups); default is every peer.
  void send_update(ObjectId id, bool retransmission, const sched::JobInfo* job = nullptr,
                   const std::vector<net::Endpoint>* targets = nullptr);
  /// Reconcile CPU update tasks with admission's current period table
  /// (periods move under compressed scheduling and constraint tightening).
  void sync_update_tasks();
  /// Remove `rec`'s update-transmission task from the CPU, if it has one.
  void drop_update_task(ObjectRecord& rec);
  /// `id`'s record, or a default one if none exists (never inserts).
  [[nodiscard]] const ObjectRecord& record(ObjectId id) const;
  /// Start an acked transfer of `ids` (and the constraint table) to
  /// `targets`, retried until every target acks: mint the id (which can
  /// fail-stop), send, arm the retry.
  void begin_transfer(std::vector<ObjectId> ids, const std::vector<net::Endpoint>& targets,
                      bool delta);
  /// Encode `pending` as a kStateTransfer or kStateDelta from the live
  /// store and send it to the peers still awaiting it.
  void send_transfer(std::uint64_t transfer_id, const PendingTransfer& pending);
  void retry_pending_registrations();
  void arm_watchdog(ObjectId id);
  /// The interval at which the backup should expect updates for `id`: the
  /// admitted transmission period, or the client period in coupled mode.
  [[nodiscard]] Duration effective_update_interval(ObjectId id) const;
  void arm_ack_timeout(ObjectId id, std::uint64_t version);
  void start_heartbeat();
  /// Create + start the failure detector for `peer` unless already running.
  void ensure_detector(net::Endpoint peer);
  /// The ack timeout detectors start with: config_.ping_ack_timeout if
  /// non-zero, else derived from the link delay bound ℓ (clamp(4ℓ, 5 ms,
  /// ping_period)); ping_period / 2 with no link model.
  [[nodiscard]] Duration derived_ack_timeout() const;
  /// A matched ping ack measured `rtt`: feed the overload detector and,
  /// in adaptive mode, retune every detector's ack timeout to the RTO.
  void on_rtt_sample(Duration rtt);
  /// Arm the pending-transfer retry unless it is armed: after an
  /// exponential backoff with seeded jitter when degradation is on, the
  /// fixed ping_period × 2 otherwise.
  void arm_transfer_retry();
  /// No transfer is pending any more: stop retrying, reset the backoff.
  void transfers_settled();
  /// Slack-aware shedding: under overload, reorder the staged updates by
  /// time-to-window-violation and drop the ones a fresh client write will
  /// supersede before their slack expires.  Runs inside the batch flush.
  void shed_staged_updates();
  /// Periodic (10 ms) primary-side QoS evaluation: downgrade objects whose
  /// window is more than half consumed while overloaded (or nearly fully
  /// consumed regardless), restore after calm hysteresis.
  void qos_tick();
  void arm_qos_tick();
  /// A per-peer detector declared `peer` dead.
  void on_peer_dead(net::NodeId peer);
  [[nodiscard]] bool is_peer(net::NodeId node) const;
  /// Drop `peer` from the replication set (detector, acks, transfers).
  void remove_peer(net::NodeId peer);
  /// Stop `ps`'s detector and park it in retired_detectors_ (safe even
  /// when called from inside a detector callback).
  void retire(PeerState& ps);
  /// Retire every per-peer detector, then forget all peers.
  void clear_peers();
  /// The one exit of each role: drop everything the role owns at once —
  /// the primary its update tasks, timers, staged batch, transfers and
  /// per-object fields, the backup its watchdogs — and its peers.
  void leave_primary();
  void leave_backup();
  /// This primary learned of a higher epoch: demote to an orphaned backup.
  void step_down(std::uint64_t new_epoch);
  /// Grow the admission frame budget to cover `payload_bytes`.
  void grow_frame_budget(std::size_t payload_bytes);

  // ---- durability helpers (all no-ops with no attached storage) ----
  /// WAL a remote update BEFORE applying it (log-before-apply): returns
  /// false — and the caller must bail without applying or acking — when
  /// the append fail-stopped this replica.
  bool durable_log_update(ObjectId id, std::uint64_t version, TimePoint origin_ts,
                          std::span<const std::uint8_t> value);
  /// WAL a registration before inserting it; fail-stop on device failure.
  bool durable_log_insert(const ObjectSpec& spec);
  /// Persist (epoch, next_transfer_id) — called whenever either moves.
  void durable_log_meta();
  /// Mint the next transfer id and persist the new high water, so a
  /// restarted primary never reuses an id its peers already saw.
  std::uint64_t mint_transfer_id();
  /// Checkpoint when the WAL grew past the configured record budget.
  void maybe_checkpoint();
  /// A storage append failed: crash this replica (fail-stop discipline).
  void fail_stop(const char* what);
  /// One kStateTransfer/kStateDelta entry for `id` from the live store.
  [[nodiscard]] wire::StateEntry state_entry_for(ObjectId id) const;

  // Every member has one lifetime: the replica's are kept across role
  // changes and restarts, the incarnation's until crash(), and each
  // role's until its exit, leave_primary() or leave_backup().

  // ---- the replica ----
  sim::Simulator& sim_;
  net::Network& network_;
  NameService& names_;
  ServiceConfig config_;
  Metrics& metrics_;
  Role role_;
  std::string service_name_;

  xkernel::HostStack stack_;
  std::unique_ptr<xkernel::FragLite> frag_;  ///< null when fragmentation is off
  sched::Cpu cpu_;
  /// Replaced wholesale by restart() from the recovered image.
  ObjectStore store_;
  /// One record per object ever seen, in ascending id order.
  std::map<ObjectId, ObjectRecord> objects_;
  /// Built at start(); promote() rebuilds it from the replicated specs.
  std::unique_ptr<AdmissionController> admission_;
  Hooks hooks_;

  /// The replication set (a primary's backups, a backup's primary), in
  /// replication order: [0] = successor.  Each role's exit forgets it.
  std::vector<net::Endpoint> peers_;
  std::map<net::NodeId, PeerState> peer_state_;
  /// Monotone-merged frontiers ingested from peer groups, by shard index.
  std::map<std::uint32_t, TimePoint> peer_frontiers_;
  /// Stopped detectors of former peers.  Destroying a FailureDetector from
  /// inside its own peer-dead callback would free the executing object;
  /// parking it here keeps teardown safe and deterministic.
  std::vector<std::unique_ptr<FailureDetector>> retired_detectors_;
  std::vector<InterObjectConstraint> replicated_constraints_;
  /// Reused by flush_staged_updates() and shed_staged_updates(), so a
  /// steady batch stream stops allocating for them.  batch_ is empty
  /// between flushes: its entries borrow values from store_.
  wire::UpdateBatch batch_;
  std::vector<std::pair<Duration, ObjectId>> by_slack_;
  /// Persisted with the epoch; restart() reloads both.
  std::uint64_t next_transfer_id_ = 1;
  store::DurableStore* storage_ = nullptr;  ///< null = in-memory replica

  bool started_ = false;
  bool crashed_ = false;
  bool successor_ = true;
  TimePoint promoted_at_{};

  /// Replication epoch: 1 for the initial primary, 0 (unknown) for fresh
  /// backups until they learn it from accepted traffic.
  std::uint64_t epoch_ = 0;
  /// Largest update payload registered so far (≥ the historical 1 KiB
  /// floor); sizes the frame used to derive the admission bound ℓ.
  std::size_t frame_budget_ = 1024;
  std::optional<net::LinkParams> link_params_;

  /// Overload detector + RTT estimator (built at start()).
  std::unique_ptr<DegradationController> degrade_;
  /// Backoff for pending-transfer retries (seeded jitter drawn from rng_).
  BackoffPolicy transfer_backoff_;
  std::uint64_t next_qos_seq_ = 1;

  Rng rng_{0};

  telemetry::Facts<Fact> facts_;  ///< on track "nodeN/rtpb"

  // ---- this incarnation ----
  Incarnation incarnation_;

  // ---- the primary role ----
  PrimaryRole primary_;
};

}  // namespace rtpb::core
