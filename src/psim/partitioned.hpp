// Partitioned RTPB cluster: one primary-backup GROUP per partition, each
// with its OWN simulator, advanced in parallel by the conservative driver.
//
// This is the repository's one multi-group deployment.  Each group is a
// full core::RtpbService (own Simulator, Network, NameService, Metrics, RNG
// stream, trace recorder), so the groups are independent event streams
// that the ParallelDriver can advance on separate threads inside ℓ-wide
// lookahead windows; threads=1 is the sequential reference run.
//
// Cross-group coupling is only the stable-timestamp frontier: a group's
// frontier F is the minimum, over its objects, of the newest origin
// timestamp its successor backup has applied, the instant up to which
// every object of the group is provably fresh.  A cross-group constraint
// δ_ij (i in A, j in B) holds at t whenever t − F_A ≤ δ_ij and
// t − F_B ≤ δ_ij, so groups exchange one timestamp (core::FrontierRecord)
// instead of object tables.  Because peer groups live in different
// simulators, frontier records cannot travel through a simulated link;
// instead the mesh shares one publish board, a slot per partition in
// ascending source id.  A partition writes its own slot at window end
// when its frontier advances, and at the next window begin scans the
// board in slot order, feeding ReplicaServer::ingest_frontier every peer
// slot newer than what it last took from that peer.  Publishes are
// strictly monotone, at most one per source per window, and every
// partition scans every window, so "newer than last ingested" is exactly
// "published last window".  The
// driver runs each window as two barrier-separated phases (drain+advance,
// then publish): each slot has a single writer and the barriers order
// every write before every read, so a record published in window k is
// drained in window k+1 by every peer and crosses in [ℓ, 2ℓ]: the
// staleness envelope the link bound ℓ already budgets for.
//
// Determinism: every partition's event stream is a pure function of its
// (seed, window schedule, ingested frontier sequence), and all three are
// thread-count-invariant.  The per-shard digest equality tests pin this.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/service.hpp"
#include "psim/driver.hpp"

namespace rtpb::psim {

/// One primary-backup group as a driver partition.  Owns the group's
/// frontier and shares the mesh's publish board; the service is borrowed
/// and must outlive the partition.
class GroupPartition final : public PartitionTask {
 public:
  GroupPartition(std::uint32_t id, core::RtpbService& service);

  /// Give every partition in `parts` one shared publish board, slots in
  /// ascending id whatever the order of `parts`.  Call once, after every
  /// partition is constructed and before the first window.
  static void wire_mesh(const std::vector<std::unique_ptr<GroupPartition>>& parts);

  /// Start tracking an admitted object (once per id) in this partition's
  /// frontier, at the epoch origin: nothing of it is stable yet.
  void track(core::ObjectId id);

  // ---- PartitionTask (called from the owning worker thread) ----
  void begin_window(TimePoint start) override;
  void advance_to(TimePoint horizon) override;
  void end_window(TimePoint horizon) override;

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] core::RtpbService& service() { return service_; }
  [[nodiscard]] const core::RtpbService& service() const { return service_; }
  /// The stable-timestamp frontier as of the last window end: the minimum
  /// over tracked objects, TimePoint::max() when none is tracked (an empty
  /// partition constrains nothing).
  [[nodiscard]] TimePoint frontier() const;
  /// Frontier records this partition published to its peers / drained
  /// from them (a publish reaches every peer but counts once).
  [[nodiscard]] std::uint64_t records_published() const { return records_published_; }
  [[nodiscard]] std::uint64_t records_ingested() const { return records_ingested_; }

 private:
  const std::uint32_t id_;
  core::RtpbService& service_;

  /// Per tracked object, the newest origin timestamp the successor backup
  /// has applied.  It only ever advances.
  struct Tracked {
    core::ObjectId id;
    TimePoint stable;
  };
  std::vector<Tracked> tracked_;
  TimePoint last_published_{};

  /// The mesh's board: one slot per partition, ascending source id.
  std::shared_ptr<std::vector<core::FrontierRecord>> board_;
  std::size_t slot_ = 0;                  ///< this partition's own slot
  std::vector<TimePoint> last_ingested_;  ///< per slot: newest taken from it

  std::uint64_t records_published_ = 0;
  std::uint64_t records_ingested_ = 0;
};

struct PartitionedClusterParams {
  std::uint64_t seed = 1;
  net::LinkParams link;          ///< primary↔backup link, every group
  core::ServiceConfig config;
  std::uint32_t group_count = 2;
  std::size_t backup_count = 1;
};

/// The assembled partitioned cluster: group g is service "pgroup-g", seeded
/// statelessly from `seed` (stream g) so adding groups never reshuffles
/// existing ones.  The lookahead window is the link delay bound ℓ, the
/// widest window the frontier-staleness argument above supports without
/// exceeding the admission budget.  Construction, registration and
/// constraint admission are single-threaded control-plane operations;
/// only run_for() enters the parallel region.
class PartitionedCluster {
 public:
  explicit PartitionedCluster(const PartitionedClusterParams& params);

  PartitionedCluster(const PartitionedCluster&) = delete;
  PartitionedCluster& operator=(const PartitionedCluster&) = delete;

  /// Start every group's servers.  Call before registering objects.
  void start();

  /// Place by hash: group core::shard_of(id, group_count()).
  core::AdmissionResult register_object(const core::ObjectSpec& spec);
  /// Place directly into `group`, bypassing hash routing (bench workloads
  /// that want an exact per-group object count).
  core::AdmissionResult register_object_in(std::uint32_t group, const core::ObjectSpec& spec);

  /// Same-group constraints go to that group's admission; cross-group
  /// constraints decompose into one self-pair cap {i, i, δ_ij} per side,
  /// dry-run on both sides before either commits.  Objects route to the
  /// group they were registered in, wherever that was; an unregistered id
  /// is kUnknownObject.  Control plane only — never call
  /// from inside the parallel region.
  core::AdmissionStatus add_constraint(const core::InterObjectConstraint& c);
  /// Frontier arithmetic over the home partitions' frontiers.  An
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
  /// The lookahead window ℓ.
  [[nodiscard]] Duration window() const { return window_; }
  /// Common virtual clock (all groups agree between run_for calls).
  [[nodiscard]] TimePoint now() const { return services_.front()->simulator().now(); }
  /// Per-group trace digests, in group order (the caller enables each
  /// group's digest before start()).
  [[nodiscard]] std::vector<std::uint64_t> digests() const;
  [[nodiscard]] const std::vector<core::InterObjectConstraint>& cross_constraints() const {
    return cross_;
  }
  /// Σ records published / ingested over partitions.
  [[nodiscard]] std::uint64_t frontier_records_published() const;
  [[nodiscard]] std::uint64_t frontier_records_ingested() const;

 private:
  Duration window_{};
  std::vector<std::unique_ptr<core::RtpbService>> services_;
  std::vector<std::unique_ptr<GroupPartition>> partitions_;
  std::vector<core::InterObjectConstraint> cross_;
  /// Group each admitted object was placed in (hash home or explicit).
  std::map<core::ObjectId, std::uint32_t> home_;
  bool started_ = false;
};

}  // namespace rtpb::psim
