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
#include <string>
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

class ReplicaServer {
 public:
  struct Hooks {
    /// Fired when this (backup) server promotes itself to primary.
    std::function<void()> on_promoted;
    /// Fired on the new primary when a recruited backup acknowledged the
    /// full state transfer and replication is re-established.
    std::function<void()> on_backup_recruited;
    /// Fired on a backup that detected the primary's death but is NOT the
    /// designated successor (multi-backup deployments): it should re-peer
    /// with the new primary once the name service is rewritten.
    std::function<void()> on_primary_lost;
    /// Fired on a primary that learned of a higher replication epoch and
    /// stepped down (split-brain resolution): the hosting service should
    /// deactivate this replica's client application.
    std::function<void()> on_deposed;
    /// Fired on the primary when it renegotiates an object's QoS at
    /// runtime (downgrade or restore) — the paper's client notification;
    /// the spec passed is the now-admitted one.
    std::function<void(ObjectId, const ObjectSpec&)> on_qos_changed;
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
    object_loss_override_[id] = p;
  }
  void clear_object_loss_probability(ObjectId id) { object_loss_override_.erase(id); }

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
  [[nodiscard]] std::uint64_t recovery_lost_updates() const { return recovery_lost_updates_; }
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }
  [[nodiscard]] std::uint64_t resync_requests_sent() const { return resync_requests_sent_; }
  [[nodiscard]] std::uint64_t resync_deltas_sent() const { return resync_deltas_sent_; }
  [[nodiscard]] std::uint64_t resync_fulls_sent() const { return resync_fulls_sent_; }
  /// Object entries shipped inside kStateDelta frames (O(dirty set), the
  /// incremental-rejoin win the recovery bench asserts).
  [[nodiscard]] std::uint64_t delta_entries_sent() const { return delta_entries_sent_; }

  // ---- client-facing interface (Mach IPC in the paper; a co-located
  // ---- call here).  Valid only while role() == kPrimary.
  AdmissionResult register_object(const ObjectSpec& spec);
  AdmissionStatus add_constraint(const InterObjectConstraint& c);
  /// Record a client write that completed at `info.finish` (the client
  /// app's CPU job callback funnels here).
  void local_write(ObjectId id, Bytes value, const sched::JobInfo& info);
  /// Read an object (either role; failover reads come through here).
  [[nodiscard]] std::optional<ObjectState> read(ObjectId id) const;

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
  [[nodiscard]] bool is_successor() const { return successor_; }
  /// Backup (non-successor, after failover): forget the dead primary and
  /// follow `new_primary` instead; restarts the heartbeat.
  void follow_new_primary(net::Endpoint new_primary);

  // ---- runtime QoS renegotiation (graceful degradation) ----
  /// Primary: loosen `id`'s temporal constraint (δ_iB grows by
  /// degrade_window_factor windows, passed through admission's suggestion
  /// machinery) and notify backups + client with kConstraintDowngrade.
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
  [[nodiscard]] bool qos_downgrade_active(ObjectId id) const {
    return downgrades_.contains(id);
  }
  /// When the last QoS notice (downgrade or restore) for `id` was sent
  /// (primary) or received (backup); TimePoint::zero() if never.
  [[nodiscard]] TimePoint qos_last_notice_at(ObjectId id) const;
  [[nodiscard]] std::uint64_t qos_downgrades_sent() const { return downgrades_sent_; }
  [[nodiscard]] std::uint64_t qos_restores_sent() const { return restores_sent_; }
  [[nodiscard]] std::uint64_t qos_downgrades_received() const { return downgrades_received_; }
  /// Updates dropped by slack-aware shedding while overloaded.
  [[nodiscard]] std::uint64_t updates_shed() const { return updates_shed_; }
  /// Updates currently staged for the open batch window (send-queue depth
  /// as seen by overload detection; health-feed instrumentation).
  [[nodiscard]] std::size_t staged_update_count() const { return staged_updates_.size(); }
  /// Transfers abandoned after transfer_retry_limit attempts (the silent
  /// peer was reported suspected-down).
  [[nodiscard]] std::uint64_t transfer_give_ups() const { return transfer_give_ups_; }
  /// The overload detector (null until start()).
  [[nodiscard]] const DegradationController* degradation() const { return degrade_.get(); }

  // ---- epoch fencing ----
  /// Current replication epoch (incarnation).  The first primary starts at
  /// 1; each promote() mints a higher epoch; backups track the highest
  /// epoch seen on accepted traffic.  0 = not yet learned (fresh standby).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// Messages dropped because they carried a lower (stale) epoch.
  [[nodiscard]] std::uint64_t epoch_rejections() const { return epoch_rejections_; }
  /// Updates/transfers dropped because this replica is not a backup.
  [[nodiscard]] std::uint64_t role_rejections() const { return role_rejections_; }
  /// Updates this replica APPLIED although they were stamped with a lower
  /// epoch than its own — the split-brain hazard.  Always 0 with epoch
  /// fencing on; the chaos no-cross-epoch-apply oracle asserts it.
  [[nodiscard]] std::uint64_t cross_epoch_applies() const { return cross_epoch_applies_; }
  /// In-flight state transfers this server is driving (input to the
  /// explorer's canonical state hash).
  [[nodiscard]] std::size_t pending_transfer_count() const { return pending_transfers_.size(); }
  /// Times this replica, as primary, stepped down after seeing a higher
  /// epoch (it had been deposed without noticing).
  [[nodiscard]] std::uint64_t step_downs() const { return step_downs_; }

  // ---- introspection / stats ----
  [[nodiscard]] std::uint64_t updates_sent() const { return updates_sent_; }
  /// Wire frames carrying update payloads (kUpdate + kUpdateBatch).  With
  /// batching on this lags updates_sent(): many updates ride one frame.
  [[nodiscard]] std::uint64_t update_frames_sent() const { return update_frames_sent_; }
  /// Updates that went out inside a kUpdateBatch frame.
  [[nodiscard]] std::uint64_t updates_batched() const { return updates_batched_; }
  [[nodiscard]] std::uint64_t updates_loss_injected() const { return updates_loss_injected_; }
  [[nodiscard]] std::uint64_t updates_applied() const { return updates_applied_; }
  [[nodiscard]] std::uint64_t stale_updates() const { return stale_updates_; }
  [[nodiscard]] std::uint64_t retransmit_requests_sent() const { return nacks_sent_; }
  [[nodiscard]] std::uint64_t retransmissions_served() const { return retransmissions_; }
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }
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
  struct UpdateTaskState {
    sched::TaskId task = sched::kInvalidTask;
    Duration period{};
  };
  /// Primary-side per-object ack-timeout handle (ack_every_update mode).
  /// Which versions each peer acknowledged lives in PeerState — a shared
  /// slot here let the fastest backup's ack cancel retransmission for
  /// peers that never received the update.
  struct AckState {
    sim::EventHandle timeout;
  };
  /// Backup-side per-object watchdog.
  struct WatchdogState {
    Duration expected_period{};
    sim::EventHandle timer;
  };
  /// Per-peer replication state (the tentpole 1→N generalisation): each
  /// backup gets its own acked-version table and failure detector.
  struct PeerState {
    net::Endpoint endpoint{};
    std::map<ObjectId, std::uint64_t> acked;
    std::unique_ptr<FailureDetector> detector;
  };

  void handle_message(xkernel::Message& msg, const xkernel::MsgAttrs& attrs);
  /// One handler per decoded message type (handle_message visits the
  /// decoded variant).  The non-const overloads move entry values out
  /// rather than copying them; batch entries are applied strictly in order.
  void handle(const wire::Update& u, net::Endpoint from);
  void handle(wire::UpdateBatch& b, net::Endpoint from);
  void handle(const wire::UpdateAck& a, net::Endpoint from);
  void handle(const wire::RetransmitRequest& r, net::Endpoint from);
  void handle(const wire::Ping& p, net::Endpoint from);
  void handle(const wire::PingAck& p, net::Endpoint from);
  void handle(const wire::StateTransfer& st, net::Endpoint from);
  void handle(const wire::StateTransferAck& ack, net::Endpoint from);
  void handle(const wire::ResyncRequest& rq, net::Endpoint from);
  void handle(wire::StateDelta& sd, net::Endpoint from);
  void handle(const wire::ConstraintDowngrade& d, net::Endpoint from);
  void handle(const wire::ConstraintRestore& rs, net::Endpoint from);
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
  /// Replicate a new registration to all peers (retried until acked).
  void replicate_registration(ObjectId id);
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
  /// Delay before the next pending-transfer retry: exponential backoff
  /// with seeded jitter when degradation is on, the fixed ping_period × 2
  /// otherwise.
  [[nodiscard]] Duration transfer_retry_delay();
  void arm_transfer_retry();
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
  /// Drop `peer` from the replication set (detector, acks, transfers).
  void remove_peer(net::NodeId peer);
  /// Stop every per-peer detector and park it in retired_ (safe even when
  /// called from inside a detector callback), then forget all peers.
  void clear_peers();
  /// This primary learned of a higher epoch: demote to an orphaned backup.
  void step_down(std::uint64_t new_epoch);
  /// Grow the admission frame budget to cover `payload_bytes`.
  void grow_frame_budget(std::size_t payload_bytes);

  // ---- durability helpers (all no-ops with no attached storage) ----
  /// WAL a remote update BEFORE applying it (log-before-apply): returns
  /// false — and the caller must bail without applying or acking — when
  /// the append fail-stopped this replica.
  bool durable_log_update(ObjectId id, std::uint64_t version, TimePoint origin_ts,
                          const Bytes& value);
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
  ObjectStore store_;
  std::unique_ptr<AdmissionController> admission_;
  Hooks hooks_;

  std::vector<net::Endpoint> peers_;  ///< replication order; [0] = successor
  std::map<net::NodeId, PeerState> peer_state_;
  /// Monotone-merged frontiers ingested from peer groups, by shard index.
  std::map<std::uint32_t, TimePoint> peer_frontiers_;
  /// Per-object §5 loss-injection overrides (shard-targeted chaos verbs).
  std::map<ObjectId, double> object_loss_override_;
  /// Stopped detectors of former peers.  Destroying a FailureDetector from
  /// inside its own peer-dead callback would free the executing object;
  /// parking it here keeps teardown safe and deterministic.
  std::vector<std::unique_ptr<FailureDetector>> retired_detectors_;
  std::vector<InterObjectConstraint> replicated_constraints_;
  std::map<ObjectId, UpdateTaskState> update_tasks_;
  std::map<ObjectId, AckState> ack_state_;
  /// Objects whose update transmissions fell due inside the open batch
  /// window, in staging order (dedup'd: a second send of the same object
  /// before the flush collapses onto the staged entry, which reads the
  /// store at flush time and so carries the newest version anyway).
  std::vector<ObjectId> staged_updates_;
  sim::EventHandle batch_flush_;
  std::map<ObjectId, WatchdogState> watchdogs_;
  /// Highest transfer id applied per sender: a reordered older transfer
  /// must not clobber newer constraint tables / watchdog periods.
  std::map<net::NodeId, std::uint64_t> transfer_high_water_;

  /// Registrations / state transfers not yet acknowledged by every peer.
  struct PendingTransfer {
    std::vector<ObjectId> ids;
    std::set<net::NodeId> awaiting;
    std::uint32_t attempts = 0;  ///< retries so far (capped by transfer_retry_limit)
    bool delta = false;          ///< retry re-encodes kStateDelta, not kStateTransfer
  };
  std::map<std::uint64_t, PendingTransfer> pending_transfers_;
  std::uint64_t next_transfer_id_ = 1;
  sim::EventHandle transfer_retry_;

  // ---- durability & crash recovery state ----
  store::DurableStore* storage_ = nullptr;  ///< null = in-memory replica
  /// Store versions at the instant of crash() — everything the replica
  /// could have acked.  restart() diffs the recovered state against this
  /// to feed the durable-recovery oracle.
  std::map<ObjectId, std::uint64_t> acked_at_crash_;
  sim::EventHandle resync_retry_;
  std::uint32_t resync_attempts_ = 0;
  bool resync_pending_ = false;

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

  // ---- graceful degradation state ----
  /// Overload detector + RTT estimator (built at start()).
  std::unique_ptr<DegradationController> degrade_;
  /// Backoff for pending-transfer retries (seeded jitter drawn from rng_).
  std::optional<BackoffPolicy> transfer_backoff_;
  /// Primary-side record of each active downgrade: the original spec and
  /// period to restore, and when the downgrade was issued.
  struct QosState {
    ObjectSpec original;
    Duration original_period{};
    std::uint64_t qos_seq = 0;
    TimePoint since{};
  };
  std::map<ObjectId, QosState> downgrades_;
  /// Per-object newest renegotiation seq applied (backup-side reorder
  /// guard; carried into a promotion so a new primary's notices stay
  /// seq-newer).
  std::map<ObjectId, std::uint64_t> qos_applied_seq_;
  std::map<ObjectId, TimePoint> qos_notice_at_;
  std::uint64_t next_qos_seq_ = 1;
  sim::EventHandle qos_tick_;

  Rng rng_{0};
  std::uint64_t updates_shed_ = 0;
  std::uint64_t downgrades_sent_ = 0;
  std::uint64_t restores_sent_ = 0;
  std::uint64_t downgrades_received_ = 0;
  std::uint64_t transfer_give_ups_ = 0;
  std::uint64_t updates_sent_ = 0;
  std::uint64_t update_frames_sent_ = 0;
  std::uint64_t updates_batched_ = 0;
  std::uint64_t updates_loss_injected_ = 0;
  std::uint64_t updates_applied_ = 0;
  std::uint64_t stale_updates_ = 0;
  std::uint64_t nacks_sent_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t epoch_rejections_ = 0;
  std::uint64_t role_rejections_ = 0;
  std::uint64_t cross_epoch_applies_ = 0;
  std::uint64_t step_downs_ = 0;
  std::uint64_t recovery_lost_updates_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t resync_requests_sent_ = 0;
  std::uint64_t resync_deltas_sent_ = 0;
  std::uint64_t resync_fulls_sent_ = 0;
  std::uint64_t delta_entries_sent_ = 0;
};

}  // namespace rtpb::core
