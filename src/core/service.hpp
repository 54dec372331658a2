// RtpbService — the public facade.  Assembles the full system of the
// paper's Figure 5 on a simulated two-host LAN: a primary server with a
// co-located client application, a backup server with a standby client
// twin, the x-kernel protocol stacks, the name service, and the shared
// metrics recorder.  Examples and benches drive experiments through this
// type alone.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/client.hpp"
#include "core/metrics.hpp"
#include "core/name_service.hpp"
#include "core/server.hpp"
#include "core/types.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "store/device.hpp"
#include "store/durable_store.hpp"
#include "telemetry/facts.hpp"

namespace rtpb::core {

/// The facts an RtpbService reports: its start, with the backup count.
enum class ServiceFact : std::uint8_t { kStart, kCount };

constexpr telemetry::FactSinks<ServiceFact> fact_sinks(ServiceFact f) {
  switch (f) {
    case ServiceFact::kStart: return {.event = "start", .gauge = "core.service.backups"};
    case ServiceFact::kCount: break;
  }
  return {};
}

struct ServiceParams {
  std::uint64_t seed = 1;
  net::LinkParams link;           ///< primary↔backup link characteristics
  ServiceConfig config;
  std::string service_name = "rtpb-service";
  /// Number of backup replicas (paper future work: "support for multiple
  /// backups").  The first backup is the designated failover successor;
  /// further backups re-peer with the new primary after a failover.
  std::size_t backup_count = 1;
  /// Give every replica a write-ahead-logged object store on simulated
  /// storage devices, enabling crash–restart via restart_primary() /
  /// restart_backup().  Off by default: WAL appends are synchronous (no
  /// sim events, no rng draws), so enabling durability without crashing
  /// keeps traces and digests byte-identical — but off keeps the
  /// historical memory profile.
  bool durable = false;
  /// WAL records between automatic checkpoints (durable mode).
  std::size_t checkpoint_every = 64;
};

class RtpbService {
 public:
  explicit RtpbService(ServiceParams params);

  RtpbService(const RtpbService&) = delete;
  RtpbService& operator=(const RtpbService&) = delete;

  /// Start both servers and heartbeats.  Call before registering objects.
  void start();

  /// Advance virtual time by `d`.
  void run_for(Duration d);
  /// Advance by `d`, then discard all metrics gathered so far (warm-up).
  void warm_up(Duration d);
  /// Close open inconsistency intervals at the current instant (call once
  /// at the end of an experiment, before reading metrics).
  void finish();

  // ---- workload ----
  AdmissionResult register_object(const ObjectSpec& spec) { return client_->add_object(spec); }
  AdmissionStatus add_constraint(const InterObjectConstraint& c) {
    return client_->add_constraint(c);
  }

  // ---- failure injection / failover ----
  void crash_primary();
  void crash_backup();
  /// Durable mode only: restart the (original) primary replica from its
  /// durable state.  It rejoins as an orphaned backup; the service polls
  /// the name service for the acting primary and drives an incremental
  /// resync (kResyncRequest → kStateDelta).
  void restart_primary();
  /// Durable mode only: restart backup `index` the same way.
  void restart_backup(std::size_t index = 0);
  /// The simulated storage devices of a replica (crash-point / torn-write
  /// injection), or nullptr when not durable.  `replica_index` follows
  /// for_each_replica order: 0 = original primary, then backups.
  [[nodiscard]] store::SimStorageDevice* wal_device(std::size_t replica_index);
  [[nodiscard]] store::SimStorageDevice* checkpoint_device(std::size_t replica_index);
  /// Create a fresh standby host wired to the current primary, have the
  /// primary recruit it, and return it.  Models §4.4's "waits to recruit a
  /// new backup".
  ReplicaServer& add_standby();

  /// The server currently acting as primary (changes after failover).
  [[nodiscard]] ReplicaServer& acting_primary();

  // ---- oracle observation points (chaos harness) ----
  /// Visit every replica ever created, crashed or not, in a deterministic
  /// order: original primary, backups in creation order, standby last.
  void for_each_replica(const std::function<void(const ReplicaServer&)>& fn) const;
  /// Live (non-crashed) replicas currently claiming the primary role.
  /// Exactly 1 whenever the system is healthy and failover has settled.
  [[nodiscard]] std::size_t primaries_alive() const;

  // ---- accessors ----
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const sim::Simulator& simulator() const { return sim_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] NameService& names() { return names_; }
  [[nodiscard]] Metrics& metrics() { return metrics_; }
  [[nodiscard]] ReplicaServer& primary() { return *primary_; }
  /// The designated-successor backup (first of backups()).
  [[nodiscard]] ReplicaServer& backup() { return *backups_.front(); }
  [[nodiscard]] std::vector<std::unique_ptr<ReplicaServer>>& backups() { return backups_; }
  [[nodiscard]] ClientApp& client() { return *client_; }
  [[nodiscard]] ClientApp& backup_client() { return *backup_client_; }
  /// The standby created by add_standby(), or nullptr before that.
  [[nodiscard]] ReplicaServer* standby() { return standby_.get(); }
  [[nodiscard]] const ServiceParams& params() const { return params_; }
  /// Delay bound ℓ of the replication link as admission control sees it.
  [[nodiscard]] Duration link_delay_bound() const;

 private:
  /// Per-replica durable backing: two simulated devices (WAL +
  /// checkpoint) and the store that owns the framing/replay logic.
  struct ReplicaStorage {
    store::SimStorageDevice wal;
    store::SimStorageDevice checkpoint;
    store::DurableStore durable;
    explicit ReplicaStorage(std::size_t checkpoint_every)
        : durable(wal, checkpoint, checkpoint_every) {}
  };

  ServiceParams params_;
  sim::Simulator sim_;
  net::Network network_;
  NameService names_;
  Metrics metrics_;
  std::unique_ptr<ReplicaServer> primary_;
  std::vector<std::unique_ptr<ReplicaServer>> backups_;
  std::unique_ptr<ClientApp> client_;
  std::unique_ptr<ClientApp> backup_client_;
  std::unique_ptr<ReplicaServer> standby_;
  /// for_each_replica order: [0] original primary, then the backups.
  /// Empty unless params_.durable.
  std::vector<std::unique_ptr<ReplicaStorage>> storage_;
  bool started_ = false;
  telemetry::Facts<ServiceFact> facts_;  ///< on track "service"

  void wire_backup_hooks();
  /// Non-successor backup lost the primary: poll the name service until
  /// the successor has published itself, then follow it.
  void repoint_backup(ReplicaServer& backup, net::Endpoint dead_primary);
  /// Restart `replica` from durable state, then poll the name service for
  /// the acting primary and drive follow + incremental resync.
  void restart_replica(ReplicaServer& replica);
  void rejoin_when_primary_known(ReplicaServer& replica);
  [[nodiscard]] ReplicaStorage* storage_for(std::size_t replica_index);
};

}  // namespace rtpb::core
