// Partitioned RTPB cluster: one primary-backup GROUP per partition, each
// with its OWN simulator, advanced in parallel by the conservative driver.
//
// This is the repository's one multi-group deployment.  Each group is a
// full core::RtpbService (own Simulator, Network, NameService, Metrics, RNG
// stream, trace recorder), so the groups are independent event streams
// that the ParallelDriver can advance on separate threads inside ℓ-wide
// lookahead windows; threads=1 is the sequential reference run.
//
// Cross-group coupling is only the stable-timestamp frontier (see
// shard/frontier.hpp).  Because peer groups live in different simulators,
// frontier records cannot travel through a simulated link; instead each
// partition publishes its frontier into per-pair SPSC queues at window end
// and drains its peers' queues — always in ascending source-group order —
// at the next window begin, feeding ReplicaServer::ingest_frontier.  The
// driver runs each window as two barrier-separated phases (drain+advance,
// then publish), so a record published in window k is drained in window
// k+1 by every peer and crosses in [ℓ, 2ℓ]: the staleness envelope the
// link bound ℓ already budgets for.
//
// Determinism: every partition's event stream is a pure function of its
// (seed, window schedule, ingested frontier sequence), and all three are
// thread-count-invariant.  The per-shard digest equality tests pin this.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/service.hpp"
#include "psim/driver.hpp"
#include "psim/spsc.hpp"
#include "shard/directory.hpp"
#include "shard/frontier.hpp"
#include "sim/partition.hpp"

namespace rtpb::psim {

/// One primary-backup group as a driver partition.  Owns the frontier
/// tracker and the inbound halves of its SPSC pair queues; the service is
/// borrowed and must outlive the partition.
class GroupPartition final : public PartitionTask {
 public:
  GroupPartition(std::uint32_t id, core::RtpbService& service,
                 std::size_t queue_capacity = 64);

  /// Wire the full mesh over `parts` (canonical pair order).  Call once,
  /// after every partition is constructed and before the first window.
  static void wire_mesh(const std::vector<std::unique_ptr<GroupPartition>>& parts);

  /// Start tracking an admitted object in this partition's frontier.
  void track(core::ObjectId id);

  // ---- PartitionTask (called from the owning worker thread) ----
  void begin_window(TimePoint start) override;
  void advance_to(TimePoint horizon) override;
  void end_window(TimePoint horizon) override;

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] core::RtpbService& service() { return service_; }
  [[nodiscard]] const core::RtpbService& service() const { return service_; }
  [[nodiscard]] const shard::FrontierTracker& frontier_tracker() const { return frontier_; }
  /// Lookahead windows this partition has been advanced through.
  [[nodiscard]] std::uint64_t windows() const { return partition_.windows(); }
  /// Frontier records this partition published to its peers / drained
  /// from them (a publish fans out to every peer but counts once).
  [[nodiscard]] std::uint64_t records_published() const { return records_published_; }
  [[nodiscard]] std::uint64_t records_ingested() const { return records_ingested_; }

 private:
  struct Inbound {
    std::uint32_t source = 0;
    std::unique_ptr<SpscQueue<core::FrontierRecord>> queue;
  };

  /// Directed edge: `from`'s worker produces into a queue owned (and
  /// drained) by `to`'s worker.
  static void connect(GroupPartition& from, GroupPartition& to);

  const std::uint32_t id_;
  core::RtpbService& service_;
  sim::Partition partition_;
  const std::size_t queue_capacity_;

  shard::FrontierTracker frontier_;
  std::vector<core::ObjectId> tracked_;
  TimePoint last_published_{};

  std::vector<Inbound> inbound_;                      ///< sorted by source id
  std::vector<SpscQueue<core::FrontierRecord>*> outbound_;  ///< peers' inbound queues

  std::uint64_t records_published_ = 0;
  std::uint64_t records_ingested_ = 0;
};

struct PartitionedClusterParams {
  std::uint64_t seed = 1;
  net::LinkParams link;          ///< primary↔backup link, every group
  core::ServiceConfig config;
  std::uint32_t group_count = 2;
  std::size_t backup_count = 1;
  /// Lookahead window width.  Zero (the default) derives it as the link
  /// delay bound ℓ — the widest window the frontier-staleness argument
  /// above supports without exceeding the admission budget.
  Duration window{};
  std::string service_prefix = "pgroup";
  /// Per-group service seeds.  Empty derives group g's seed statelessly
  /// from `seed` (stream g), so adding groups never reshuffles existing
  /// ones.  When set, must have exactly group_count entries.
  std::vector<std::uint64_t> group_seeds;
};

/// The assembled partitioned cluster.  Construction, registration and
/// constraint admission are single-threaded control-plane operations;
/// only run_for() enters the parallel region.
class PartitionedCluster {
 public:
  explicit PartitionedCluster(PartitionedClusterParams params);

  PartitionedCluster(const PartitionedCluster&) = delete;
  PartitionedCluster& operator=(const PartitionedCluster&) = delete;

  /// Start every group's servers.  Call before registering objects.
  void start();

  /// Route by the directory's hash placement (shard s == group s here:
  /// the directory is created with shard_count == group_count).
  core::AdmissionResult register_object(const core::ObjectSpec& spec);
  /// Place directly into `group`, bypassing hash routing (bench workloads
  /// that want an exact per-group object count).
  core::AdmissionResult register_object_in(std::uint32_t group, const core::ObjectSpec& spec);

  /// Same-group constraints go to that group's admission; cross-group
  /// constraints decompose into per-side caps (shard/admission.hpp) with
  /// a dry-run pre-flight on both sides before either commits.  Objects
  /// route to the group they were registered in, wherever that was; an
  /// unregistered id is kUnknownObject.  Control plane only — never call
  /// from inside the parallel region.
  core::AdmissionStatus add_constraint(const core::InterObjectConstraint& c);
  /// Frontier arithmetic over the home partitions' local trackers.  An
  /// unregistered object, like an empty partition, constrains nothing.
  [[nodiscard]] bool cross_constraint_satisfied(const core::InterObjectConstraint& c,
                                                TimePoint at) const;

  /// Advance every group by `d` in lock-stepped windows on `threads`
  /// workers (1 = inline sequential reference run).
  DriverStats run_for(Duration d, std::size_t threads);
  /// Close metric intervals on every group (end of experiment).
  void finish();

  [[nodiscard]] std::uint32_t group_count() const {
    return static_cast<std::uint32_t>(services_.size());
  }
  [[nodiscard]] core::RtpbService& service(std::uint32_t g) { return *services_[g]; }
  [[nodiscard]] GroupPartition& partition(std::uint32_t g) { return *partitions_[g]; }
  [[nodiscard]] const shard::ShardDirectory& directory() const { return directory_; }
  /// The lookahead window actually in use (ℓ unless overridden).
  [[nodiscard]] Duration window() const { return window_; }
  /// Common virtual clock (all groups agree between run_for calls).
  [[nodiscard]] TimePoint now() const { return services_.front()->simulator().now(); }
  /// Per-group trace digests, in group order (recorders must have been
  /// enabled by the caller before start()).
  [[nodiscard]] std::vector<std::uint64_t> digests() const;
  [[nodiscard]] const std::vector<core::InterObjectConstraint>& cross_constraints() const {
    return cross_;
  }
  /// Σ records published / ingested over partitions.
  [[nodiscard]] std::uint64_t frontier_records_published() const;
  [[nodiscard]] std::uint64_t frontier_records_ingested() const;

 private:
  PartitionedClusterParams params_;
  shard::ShardDirectory directory_;
  Duration window_{};
  std::vector<std::unique_ptr<core::RtpbService>> services_;
  std::vector<std::unique_ptr<GroupPartition>> partitions_;
  std::vector<core::InterObjectConstraint> cross_;
  /// Group each admitted object was placed in (hash home or explicit).
  std::map<core::ObjectId, std::uint32_t> home_;
  bool started_ = false;
};

}  // namespace rtpb::psim
