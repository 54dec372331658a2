// Parallel execution engine: spin barrier, driver windowing, the frontier
// publish board, and the partitioned cluster's thread-count-invariant
// digests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "protocol_facts.hpp"
#include "psim/barrier.hpp"
#include "psim/driver.hpp"
#include "psim/partitioned.hpp"

namespace rtpb::psim {
namespace {

// ---- SpinBarrier --------------------------------------------------------

TEST(SpinBarrier, SinglePartyNeverBlocks) {
  SpinBarrier barrier(1);
  barrier.arrive_and_wait();
  barrier.arrive_and_wait();
}

TEST(SpinBarrier, PhasesArePublicationPoints) {
  constexpr std::size_t kThreads = 4;
  constexpr int kPhases = 200;
  SpinBarrier barrier(kThreads);
  std::vector<std::uint64_t> counters(kThreads, 0);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int phase = 0; phase < kPhases; ++phase) {
        counters[w] = static_cast<std::uint64_t>(phase + 1);
        barrier.arrive_and_wait();
        // Everyone's phase write happens-before everyone's read here.
        for (std::size_t p = 0; p < kThreads; ++p) {
          if (counters[p] != static_cast<std::uint64_t>(phase + 1)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---- ParallelDriver -----------------------------------------------------

/// Synthetic partition: records every hook invocation; detects ordering
/// violations (begin/advance/end discipline, monotone horizons).
class RecordingTask final : public PartitionTask {
 public:
  void begin_window(TimePoint start) override {
    begins.push_back(start);
    EXPECT_EQ(begins.size(), ends.size() + 1);
  }
  void advance_to(TimePoint horizon) override {
    EXPECT_TRUE(horizons.empty() || horizon >= horizons.back());
    horizons.push_back(horizon);
  }
  void end_window(TimePoint horizon) override {
    EXPECT_EQ(horizons.back(), horizon);
    ends.push_back(horizon);
  }

  std::vector<TimePoint> begins, horizons, ends;
};

TEST(ParallelDriver, WindowsCoverTheIntervalExactly) {
  std::vector<RecordingTask> tasks(3);
  std::vector<PartitionTask*> ptrs;
  for (auto& t : tasks) ptrs.push_back(&t);
  ParallelDriver driver(ptrs, millis(10));
  const DriverStats stats =
      driver.run(TimePoint::zero(), TimePoint::zero() + millis(35), 1);
  EXPECT_EQ(stats.windows, 4u);  // 10, 20, 30, 35 (last clamps)
  EXPECT_EQ(stats.threads, 1u);
  EXPECT_EQ(stats.barriers, 0u);  // inline path has no barrier episodes
  for (const auto& t : tasks) {
    EXPECT_EQ(t.horizons, (std::vector<TimePoint>{
                              TimePoint::zero() + millis(10), TimePoint::zero() + millis(20),
                              TimePoint::zero() + millis(30), TimePoint::zero() + millis(35)}));
    EXPECT_EQ(t.begins.front(), TimePoint::zero());
    EXPECT_EQ(t.ends.back(), TimePoint::zero() + millis(35));
  }
}

TEST(ParallelDriver, ThreadedRunMatchesInlinePerTaskSchedule) {
  std::vector<RecordingTask> inline_tasks(5), threaded_tasks(5);
  std::vector<PartitionTask*> inline_ptrs, threaded_ptrs;
  for (auto& t : inline_tasks) inline_ptrs.push_back(&t);
  for (auto& t : threaded_tasks) threaded_ptrs.push_back(&t);

  ParallelDriver inline_driver(inline_ptrs, millis(7));
  ParallelDriver threaded_driver(threaded_ptrs, millis(7));
  const TimePoint end = TimePoint::zero() + millis(100);
  const DriverStats s1 = inline_driver.run(TimePoint::zero(), end, 1);
  const DriverStats s3 = threaded_driver.run(TimePoint::zero(), end, 3);

  EXPECT_EQ(s1.windows, s3.windows);
  EXPECT_EQ(s3.threads, 3u);
  EXPECT_EQ(s3.barriers, 2 * s3.windows);  // drain+advance | publish phases
  for (std::size_t i = 0; i < inline_tasks.size(); ++i) {
    EXPECT_EQ(threaded_tasks[i].begins, inline_tasks[i].begins);
    EXPECT_EQ(threaded_tasks[i].horizons, inline_tasks[i].horizons);
    EXPECT_EQ(threaded_tasks[i].ends, inline_tasks[i].ends);
  }
}

/// Detects same-window publish/drain overlap.  With the two-phase window
/// the counts below are EXACT at every thread count: when any task begins
/// window k, every task has ended windows 0..k-1 and none has ended k;
/// when any task ends window k, every task has advanced through k and
/// none has advanced past it.  The single-barrier (and old sequential
/// begin/advance/end-per-task) schedule violates both.
class PhaseCheckTask final : public PartitionTask {
 public:
  PhaseCheckTask(std::atomic<std::uint64_t>& advances, std::atomic<std::uint64_t>& ends,
                 std::size_t ntasks)
      : advances_(advances), ends_(ends), ntasks_(ntasks) {}

  void begin_window(TimePoint /*start*/) override {
    EXPECT_EQ(ends_.load(), windows_done_ * ntasks_);
  }
  void advance_to(TimePoint /*horizon*/) override {
    advances_.fetch_add(1);
  }
  void end_window(TimePoint /*horizon*/) override {
    EXPECT_EQ(advances_.load(), (windows_done_ + 1) * ntasks_);
    ++windows_done_;
    ends_.fetch_add(1);
  }

 private:
  std::atomic<std::uint64_t>& advances_;
  std::atomic<std::uint64_t>& ends_;
  const std::size_t ntasks_;
  std::uint64_t windows_done_ = 0;
};

TEST(ParallelDriver, WindowPhasesAreBarrierSeparated) {
  constexpr std::size_t kTasks = 6;
  constexpr std::uint64_t kWindows = 20;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    std::atomic<std::uint64_t> advances{0};
    std::atomic<std::uint64_t> ends{0};
    std::vector<std::unique_ptr<PhaseCheckTask>> tasks;
    std::vector<PartitionTask*> ptrs;
    for (std::size_t i = 0; i < kTasks; ++i) {
      tasks.push_back(std::make_unique<PhaseCheckTask>(advances, ends, kTasks));
      ptrs.push_back(tasks.back().get());
    }
    ParallelDriver driver(std::move(ptrs), millis(5));
    const DriverStats stats =
        driver.run(TimePoint::zero(),
                   TimePoint::zero() + millis(5) * static_cast<std::int64_t>(kWindows), threads);
    EXPECT_EQ(stats.windows, kWindows);
    EXPECT_EQ(advances.load(), kWindows * kTasks);
    EXPECT_EQ(ends.load(), kWindows * kTasks);
  }
}

TEST(ParallelDriver, ClampsThreadsToPartitionCount) {
  std::vector<RecordingTask> tasks(2);
  std::vector<PartitionTask*> ptrs;
  for (auto& t : tasks) ptrs.push_back(&t);
  ParallelDriver driver(ptrs, millis(5));
  const DriverStats stats =
      driver.run(TimePoint::zero(), TimePoint::zero() + millis(20), 16);
  EXPECT_EQ(stats.threads, 2u);
  EXPECT_EQ(stats.windows, 4u);
}

TEST(ParallelDriver, EmptyIntervalRunsZeroWindows) {
  RecordingTask task;
  ParallelDriver driver({&task}, millis(5));
  const DriverStats stats = driver.run(TimePoint::zero(), TimePoint::zero(), 4);
  EXPECT_EQ(stats.windows, 0u);
  EXPECT_TRUE(task.begins.empty());
}

// ---- PartitionedCluster -------------------------------------------------

core::ObjectSpec light_spec(core::ObjectId id) {
  core::ObjectSpec spec;
  spec.id = id;
  spec.client_period = millis(50);
  spec.client_exec = micros(1);
  spec.update_exec = micros(1);
  spec.size_bytes = 64;
  // Tight backup window => ~50ms update period: the frontier plane stays
  // busy during a 2s run instead of publishing once at registration.
  spec.delta_primary = millis(400);
  spec.delta_backup = spec.delta_primary + millis(100);
  return spec;
}

PartitionedClusterParams cluster_params(std::uint32_t groups) {
  PartitionedClusterParams p;
  p.seed = 1234;
  p.group_count = groups;
  return p;
}

/// Build, load and run a cluster; return its per-group digests.
std::vector<std::uint64_t> run_cluster(std::uint32_t groups, std::size_t threads,
                                       Duration duration) {
  PartitionedCluster cluster(cluster_params(groups));
  for (std::uint32_t g = 0; g < groups; ++g) {
    cluster.service(g).simulator().telemetry().digest().enable();
  }
  cluster.start();
  core::ObjectId next = 1;
  for (std::uint32_t g = 0; g < groups; ++g) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(cluster.register_object_in(g, light_spec(next++)).ok());
    }
  }
  cluster.run_for(duration, threads);
  cluster.finish();
  return cluster.digests();
}

TEST(PartitionedCluster, DigestsAreThreadCountInvariant) {
  const Duration d = seconds(2);
  const std::vector<std::uint64_t> one = run_cluster(4, 1, d);
  const std::vector<std::uint64_t> two = run_cluster(4, 2, d);
  const std::vector<std::uint64_t> four = run_cluster(4, 4, d);
  EXPECT_EQ(two, one);
  EXPECT_EQ(four, one);
  // And distinct groups run distinct seeded streams.
  EXPECT_NE(one[0], one[1]);
}

/// What one group's Hub holds after a run, and its post-mortem count.
struct GroupTelemetry {
  std::string metrics;
  std::uint64_t events = 0;
  std::uint64_t postmortem_events = 0;
};

std::vector<GroupTelemetry> run_observed_cluster(std::size_t threads) {
  constexpr std::uint32_t kGroups = 4;
  PartitionedCluster cluster(cluster_params(kGroups));
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    telemetry::Hub& hub = cluster.service(g).simulator().telemetry();
    hub.enable();
    hub.enable_postmortem();
  }
  cluster.start();
  core::ObjectId next = 1;
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(cluster.register_object_in(g, light_spec(next++)).ok());
    }
  }
  cluster.run_for(seconds(2), threads);
  cluster.finish();
  std::vector<GroupTelemetry> out;
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    const telemetry::Hub& hub = cluster.service(g).simulator().telemetry();
    out.push_back({hub.registry().to_json(), hub.recorded_events(), hub.postmortem_events()});
  }
  return out;
}

TEST(PartitionedCluster, TelemetryOnEveryGroupIsThreadConfined) {
  // A Hub takes no locks: it is fed only by its own group's simulator,
  // which the driver pins to one worker for the whole run.  Under TSan a
  // Hub written from two workers would race; here every group's metrics,
  // event count and post-mortem count must also not depend on how many
  // workers ran the groups.
  const std::vector<GroupTelemetry> one = run_observed_cluster(1);
  const std::vector<GroupTelemetry> two = run_observed_cluster(2);
  ASSERT_EQ(two.size(), one.size());
  for (std::size_t g = 0; g < one.size(); ++g) {
    EXPECT_EQ(two[g].metrics, one[g].metrics) << "group " << g;
    EXPECT_EQ(two[g].events, one[g].events) << "group " << g;
    EXPECT_EQ(two[g].postmortem_events, one[g].postmortem_events) << "group " << g;
    EXPECT_GT(one[g].events, 0u) << "group " << g;
    EXPECT_GT(one[g].postmortem_events, 0u) << "group " << g;
  }
}

TEST(PartitionedCluster, FrontiersCrossAtWindowBarriers) {
  PartitionedCluster cluster(cluster_params(3));
  for (std::uint32_t g = 0; g < 3; ++g) cluster.service(g).simulator().telemetry().enable();
  cluster.start();
  core::ObjectId next = 1;
  for (std::uint32_t g = 0; g < 3; ++g) {
    ASSERT_TRUE(cluster.register_object_in(g, light_spec(next++)).ok());
  }
  cluster.run_for(seconds(2), 3);
  cluster.finish();
  EXPECT_GT(cluster.frontier_records_published(), 0u);
  EXPECT_GT(cluster.frontier_records_ingested(), 0u);
  // Each publish reaches 2 peers; the final window's publishes stay on
  // the board, never drained.
  EXPECT_LE(cluster.frontier_records_ingested(), cluster.frontier_records_published() * 2);
  // The receiving primaries merged the peers' frontiers.
  std::size_t groups_with_peer_view = 0;
  for (std::uint32_t g = 0; g < 3; ++g) {
    if (!cluster.service(g).acting_primary().peer_frontiers().empty()) {
      ++groups_with_peer_view;
    }
  }
  EXPECT_EQ(groups_with_peer_view, 3u);
  // Every ingested record is one registry count and one event, per group.
  std::uint64_t counted = 0;
  for (std::uint32_t g = 0; g < 3; ++g) {
    telemetry::Hub& hub = cluster.service(g).simulator().telemetry();
    const std::uint64_t received = facts::counter(hub, "core.shard.frontier_received");
    EXPECT_EQ(facts::events(hub, "frontier-recv"), received);
    counted += received;
  }
  EXPECT_EQ(counted, cluster.frontier_records_ingested());
}

TEST(PartitionedCluster, PerWindowIngestCountsAreThreadCountInvariant) {
  // Frontier ingestion schedules no events, so the trace digests cannot
  // see a delivery skew: drive two identical clusters WINDOW BY WINDOW
  // and require the cumulative per-partition ingest/publish counts to
  // agree after every window, not just at the end of the run.  With the
  // two-phase window this equality is exact; a same-window drain (the
  // old single-barrier schedule, or the old sequential per-task order)
  // shifts ingests a window early on some partitions.
  constexpr std::uint32_t kGroups = 3;
  auto build = [] {
    auto cluster = std::make_unique<PartitionedCluster>(cluster_params(kGroups));
    cluster->start();
    core::ObjectId next = 1;
    for (std::uint32_t g = 0; g < kGroups; ++g) {
      for (int i = 0; i < 2; ++i) {
        EXPECT_TRUE(cluster->register_object_in(g, light_spec(next++)).ok());
      }
    }
    return cluster;
  };
  auto seq = build();
  auto par = build();
  const Duration w = seq->window();
  ASSERT_EQ(par->window(), w);
  std::uint64_t total_ingested = 0;
  for (int k = 0; k < 120; ++k) {
    seq->run_for(w, 1);
    par->run_for(w, 3);
    for (std::uint32_t g = 0; g < kGroups; ++g) {
      ASSERT_EQ(par->partition(g).records_ingested(), seq->partition(g).records_ingested())
          << "window " << k << " group " << g;
      ASSERT_EQ(par->partition(g).records_published(), seq->partition(g).records_published())
          << "window " << k << " group " << g;
    }
    total_ingested = seq->frontier_records_ingested();
  }
  EXPECT_GT(total_ingested, 0u);  // the frontier plane actually ran
  seq->finish();
  par->finish();
}

/// FNV-1a over a 64-bit value's bytes, little end first.
void fnv1a(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
}

/// Drive a 16-group cluster one window at a time and fold the whole
/// frontier-ingest sequence into one hash: after every window, each
/// partition's ingest/publish counts and each acting primary's merged
/// peer view; at the end, each group's frontier-recv events in order.
std::uint64_t ingest_sequence_hash(std::size_t threads) {
  constexpr std::uint32_t kGroups = 16;
  constexpr int kWindows = 600;
  PartitionedCluster cluster(cluster_params(kGroups));
  for (std::uint32_t g = 0; g < kGroups; ++g) cluster.service(g).simulator().telemetry().enable();
  cluster.start();
  core::ObjectId next = 1;
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    for (int i = 0; i < 3; ++i) {
      // Staggered backup windows give each group its own update cadence,
      // so frontiers advance in different windows on different groups.
      core::ObjectSpec spec = light_spec(next);
      spec.delta_backup = spec.delta_primary + millis(80 + 15 * static_cast<std::int64_t>(next % 8));
      ++next;
      EXPECT_TRUE(cluster.register_object_in(g, spec).ok());
    }
  }
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int k = 0; k < kWindows; ++k) {
    cluster.run_for(cluster.window(), threads);
    for (std::uint32_t g = 0; g < kGroups; ++g) {
      fnv1a(h, cluster.partition(g).records_ingested());
      fnv1a(h, cluster.partition(g).records_published());
      for (const auto& [shard, ts] : cluster.service(g).acting_primary().peer_frontiers()) {
        fnv1a(h, shard);
        fnv1a(h, static_cast<std::uint64_t>(ts.nanos()));
      }
    }
  }
  cluster.finish();
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    const telemetry::Hub& hub = cluster.service(g).simulator().telemetry();
    EXPECT_EQ(hub.dropped_events(), 0u);
    for (const telemetry::Event& e : hub.events()) {
      if (hub.name_of(e) != "frontier-recv") continue;
      fnv1a(h, static_cast<std::uint64_t>(e.at.nanos()));
      fnv1a(h, e.node);
      for (const char c : hub.detail_of(e)) fnv1a(h, static_cast<unsigned char>(c));
    }
  }
  EXPECT_GT(cluster.frontier_records_ingested(), 0u);
  return h;
}

TEST(PartitionedCluster, IngestSequenceIsPinned) {
  // Frontier ingestion schedules no events, so no trace digest covers
  // it.  This hash does: which records each partition ingests, in which
  // window and in which order.  A change to the exchange that keeps the
  // digests must keep this constant too.
  constexpr std::uint64_t kPinned = 0x6a492669e1f5e045ull;
  EXPECT_EQ(ingest_sequence_hash(1), kPinned);
  EXPECT_EQ(ingest_sequence_hash(3), kPinned);
}

TEST(PartitionedCluster, CrossGroupConstraintDecomposesWithPreflight) {
  PartitionedCluster cluster(cluster_params(2));
  cluster.start();
  ASSERT_TRUE(cluster.register_object_in(0, light_spec(1)).ok());
  ASSERT_TRUE(cluster.register_object_in(1, light_spec(2)).ok());

  auto constraints_in = [&](std::uint32_t g) {
    return cluster.service(g).acting_primary().admission().constraints().size();
  };

  core::InterObjectConstraint ok_c{1, 2, millis(300)};
  EXPECT_TRUE(cluster.add_constraint(ok_c).ok());
  ASSERT_EQ(cluster.cross_constraints().size(), 1u);

  // An unsatisfiable delta must be rejected by the pre-flight with no
  // residue on either side.
  core::InterObjectConstraint bad{1, 2, micros(1)};
  EXPECT_FALSE(cluster.add_constraint(bad).ok());
  EXPECT_EQ(cluster.cross_constraints().size(), 1u);
  EXPECT_EQ(constraints_in(0), 1u);
  EXPECT_EQ(constraints_in(1), 1u);

  cluster.run_for(seconds(2), 2);
  cluster.finish();
  // Both sides replicated long enough: the frontier check passes at end.
  EXPECT_TRUE(cluster.cross_constraint_satisfied(ok_c, cluster.now()));
}

TEST(PartitionedCluster, SameGroupConstraintDelegatesToThatGroup) {
  PartitionedCluster cluster(cluster_params(2));
  cluster.start();
  ASSERT_TRUE(cluster.register_object_in(0, light_spec(1)).ok());
  ASSERT_TRUE(cluster.register_object_in(0, light_spec(2)).ok());
  ASSERT_TRUE(cluster.add_constraint({1, 2, millis(300)}).ok());
  // A same-group pair is a directly enforced pair constraint, not a
  // frontier-checked cross-group one.
  EXPECT_TRUE(cluster.cross_constraints().empty());
  EXPECT_EQ(cluster.service(0).acting_primary().admission().constraints().size(), 1u);
  EXPECT_TRUE(cluster.service(1).acting_primary().admission().constraints().empty());
}

TEST(PartitionedCluster, ConstraintsRouteToThePlacementGroupNotTheHashHome) {
  PartitionedCluster cluster(cluster_params(2));
  cluster.start();
  // Both ids hash to group 0; place the second one in group 1 instead.
  ASSERT_EQ(core::shard_of(1, cluster.group_count()), 0u);
  ASSERT_EQ(core::shard_of(3, cluster.group_count()), 0u);
  ASSERT_TRUE(cluster.register_object_in(0, light_spec(1)).ok());
  ASSERT_TRUE(cluster.register_object_in(1, light_spec(3)).ok());

  // The pair spans the groups the objects actually live in.
  ASSERT_TRUE(cluster.add_constraint({1, 3, millis(300)}).ok());
  EXPECT_EQ(cluster.cross_constraints().size(), 1u);
  EXPECT_EQ(cluster.service(0).acting_primary().admission().constraints().size(), 1u);
  EXPECT_EQ(cluster.service(1).acting_primary().admission().constraints().size(), 1u);

  // An id that was never registered anywhere is unknown, with no residue.
  const core::AdmissionStatus ghost = cluster.add_constraint({3, 5, millis(300)});
  ASSERT_FALSE(ghost.ok());
  EXPECT_EQ(ghost.code(), core::AdmissionError::kUnknownObject);
  EXPECT_EQ(cluster.cross_constraints().size(), 1u);
  EXPECT_EQ(cluster.service(1).acting_primary().admission().constraints().size(), 1u);
}

TEST(PartitionedCluster, WindowDefaultsToLinkDelayBound) {
  PartitionedCluster cluster(cluster_params(2));
  EXPECT_EQ(cluster.window(), cluster.service(0).link_delay_bound());
  EXPECT_GT(cluster.window(), Duration::zero());
}

// ---- FrontierBoard --------------------------------------------------------

/// Partitions over their own one-object services, wired in the order
/// given and stepped by hand the way the driver's inline path runs a
/// window: every partition's begin+advance, then every partition's end.
class BoardMesh {
 public:
  explicit BoardMesh(const std::vector<std::uint32_t>& wiring_order) {
    for (const std::uint32_t id : wiring_order) {
      core::ServiceParams sp;
      sp.seed = 1000 + id;  // by id, so a wiring order changes no stream
      sp.service_name = "board-" + std::to_string(id);
      services_.push_back(std::make_unique<core::RtpbService>(std::move(sp)));
      core::RtpbService& s = *services_.back();
      s.simulator().telemetry().enable();
      s.start();
      EXPECT_TRUE(s.register_object(light_spec(id + 1)).ok());
      parts_.push_back(std::make_unique<GroupPartition>(id, s));
      parts_.back()->track(id + 1);
      window_ = std::max(window_, s.link_delay_bound());
    }
    GroupPartition::wire_mesh(parts_);
    now_ = services_.front()->simulator().now();
  }

  void begin() {
    for (auto& p : parts_) {
      p->begin_window(now_);
      p->advance_to(now_ + window_);
    }
    now_ = now_ + window_;
  }
  void end() {
    for (auto& p : parts_) p->end_window(now_);
  }
  void run(int windows) {
    for (int k = 0; k < windows; ++k) {
      begin();
      end();
    }
  }

  [[nodiscard]] TimePoint now() const { return now_; }
  /// Partitions in wiring order.
  [[nodiscard]] GroupPartition& part(std::size_t i) { return *parts_[i]; }
  [[nodiscard]] std::size_t size() const { return parts_.size(); }

  /// Partition `i`'s frontier-recv events as (time, source shard).
  [[nodiscard]] std::vector<std::pair<TimePoint, std::string>> received(std::size_t i) const {
    const telemetry::Hub& hub = services_[i]->simulator().telemetry();
    EXPECT_EQ(hub.dropped_events(), 0u);
    std::vector<std::pair<TimePoint, std::string>> out;
    for (const telemetry::Event& e : hub.events()) {
      if (hub.name_of(e) == "frontier-recv") out.emplace_back(e.at, hub.detail_of(e));
    }
    return out;
  }

 private:
  std::vector<std::unique_ptr<core::RtpbService>> services_;
  std::vector<std::unique_ptr<GroupPartition>> parts_;
  Duration window_{};
  TimePoint now_{};
};

std::string shard_detail(std::uint32_t id) { return "shard" + std::to_string(id); }

TEST(FrontierBoard, PartitionNeverIngestsItsOwnPublish) {
  BoardMesh alone({0});
  alone.run(1000);
  EXPECT_GT(alone.part(0).records_published(), 0u);
  EXPECT_EQ(alone.part(0).records_ingested(), 0u);
  EXPECT_TRUE(alone.received(0).empty());

  BoardMesh mesh({0, 1, 2});
  mesh.run(1000);
  for (std::size_t i = 0; i < mesh.size(); ++i) {
    GroupPartition& p = mesh.part(i);
    EXPECT_GT(p.records_ingested(), 0u);
    EXPECT_EQ(p.service().acting_primary().peer_frontiers().count(p.id()), 0u);
    for (const auto& [at, source] : mesh.received(i)) EXPECT_NE(source, shard_detail(p.id()));
  }
}

TEST(FrontierBoard, WindowKPublishIsIngestedInWindowKPlusOne) {
  BoardMesh mesh({0, 1, 2, 3});
  std::vector<std::uint64_t> published(mesh.size(), 0);
  std::uint64_t crossed = 0;
  for (int k = 0; k < 1000; ++k) {
    std::vector<std::uint64_t> ingested_before(mesh.size());
    for (std::size_t i = 0; i < mesh.size(); ++i) {
      ingested_before[i] = mesh.part(i).records_ingested();
    }
    mesh.begin();
    // Which sources published in the previous window.
    std::vector<bool> fresh(mesh.size());
    for (std::size_t i = 0; i < mesh.size(); ++i) {
      fresh[i] = mesh.part(i).records_published() != published[i];
    }
    for (std::size_t i = 0; i < mesh.size(); ++i) {
      std::uint64_t expected = 0;
      for (std::size_t j = 0; j < mesh.size(); ++j) {
        if (j == i) continue;
        if (fresh[j]) ++expected;
        // Every peer's last publish has arrived, and nothing newer.
        EXPECT_EQ(mesh.part(i).service().acting_primary().peer_frontier(mesh.part(j).id()),
                  mesh.part(j).records_published() == 0
                      ? TimePoint{}
                      : mesh.part(j).frontier())
            << "window " << k;
      }
      EXPECT_EQ(mesh.part(i).records_ingested() - ingested_before[i], expected)
          << "window " << k << " partition " << i;
      crossed += expected;
    }
    for (std::size_t i = 0; i < mesh.size(); ++i) published[i] = mesh.part(i).records_published();
    mesh.end();
    // A publish of this window is on the board but not yet ingested.
    for (std::size_t i = 0; i < mesh.size(); ++i) {
      if (mesh.part(i).records_published() == published[i]) continue;
      for (std::size_t j = 0; j < mesh.size(); ++j) {
        if (j == i) continue;
        EXPECT_LT(mesh.part(j).service().acting_primary().peer_frontier(mesh.part(i).id()),
                  mesh.part(i).frontier())
            << "window " << k;
      }
    }
  }
  EXPECT_GT(crossed, 0u);
}

TEST(FrontierBoard, DrainOrderIsAscendingSourceIdWhateverTheWiringOrder) {
  BoardMesh sorted({0, 1, 2, 3});
  BoardMesh shuffled({2, 0, 3, 1});
  sorted.run(1000);
  shuffled.run(1000);
  std::size_t multi_source_windows = 0;
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    const std::uint32_t id = shuffled.part(i).id();
    const auto got = shuffled.received(i);
    // The wiring order changes nothing a partition receives.
    EXPECT_EQ(got, sorted.received(id)) << "partition " << id;
    // Records ingested at one window begin arrive in ascending source id.
    for (std::size_t e = 1; e < got.size(); ++e) {
      if (got[e].first != got[e - 1].first) continue;
      ++multi_source_windows;
      EXPECT_LT(std::stoul(got[e - 1].second.substr(5)), std::stoul(got[e].second.substr(5)))
          << "partition " << id << " at " << got[e].first.to_string();
    }
  }
  EXPECT_GT(multi_source_windows, 0u);  // the order was actually exercised
}

TEST(FrontierBoard, UnchangedFrontierIsNeverIngestedTwice) {
  BoardMesh mesh({0, 1, 2});
  for (int k = 0; k < 1000; ++k) {
    mesh.begin();
    // A second scan of the same board finds nothing new.
    for (std::size_t i = 0; i < mesh.size(); ++i) {
      const std::uint64_t before = mesh.part(i).records_ingested();
      mesh.part(i).begin_window(mesh.now());
      EXPECT_EQ(mesh.part(i).records_ingested(), before) << "window " << k;
    }
    mesh.end();
  }
  // Drain the final window's publishes; then every publish has been
  // ingested exactly once by every peer.
  mesh.begin();
  for (std::size_t i = 0; i < mesh.size(); ++i) {
    const auto got = mesh.received(i);
    for (std::size_t j = 0; j < mesh.size(); ++j) {
      if (j == i) continue;
      const std::string source = shard_detail(mesh.part(j).id());
      const auto n = std::count_if(got.begin(), got.end(),
                                   [&](const auto& r) { return r.second == source; });
      EXPECT_EQ(static_cast<std::uint64_t>(n), mesh.part(j).records_published())
          << "partition " << i << " from " << j;
    }
  }
}

// ---- GroupPartition frontier ------------------------------------------------

/// What the partition's frontier should read: the minimum over `ids` of
/// the origin timestamp the successor backup has applied, zero for an
/// object it has not applied yet.
TimePoint backup_min(core::RtpbService& service, const std::vector<core::ObjectId>& ids) {
  TimePoint min = TimePoint::max();
  for (const core::ObjectId id : ids) {
    const core::ObjectState* state = service.backup().store().peek(id);
    min = std::min(min, state == nullptr || state->version == 0 ? TimePoint::zero()
                                                                : state->origin_timestamp);
  }
  return min;
}

TEST(GroupPartitionFrontier, EmptyPartitionConstrainsNothingAndPublishesNothing) {
  PartitionedCluster cluster(cluster_params(2));
  cluster.start();
  ASSERT_TRUE(cluster.register_object_in(0, light_spec(1)).ok());
  cluster.run_for(seconds(2), 1);
  cluster.finish();

  GroupPartition& empty = cluster.partition(1);
  EXPECT_EQ(empty.frontier(), TimePoint::max());
  EXPECT_EQ(empty.records_published(), 0u);
  // It still ingests its peer's publishes; the peer never hears of it.
  EXPECT_GT(empty.records_ingested(), 0u);
  EXPECT_EQ(cluster.service(0).acting_primary().peer_frontiers().count(1), 0u);
}

TEST(GroupPartitionFrontier, FrontierIsTheMinimumOverTrackedObjects) {
  PartitionedCluster cluster(cluster_params(1));
  cluster.start();
  const std::vector<core::ObjectId> ids = {1, 2, 3};
  for (const core::ObjectId id : ids) {
    core::ObjectSpec spec = light_spec(id);
    // Different backup windows give each object its own update period.
    spec.delta_backup = spec.delta_primary + millis(100 + 60 * static_cast<std::int64_t>(id));
    ASSERT_TRUE(cluster.register_object_in(0, spec).ok());
  }
  GroupPartition& part = cluster.partition(0);
  std::size_t windows_with_spread = 0;
  for (int k = 0; k < 1000; ++k) {
    cluster.run_for(cluster.window(), 1);
    ASSERT_EQ(part.frontier(), backup_min(cluster.service(0), ids)) << "window " << k;
    // The objects' timestamps differ, so the minimum is a real choice.
    for (const core::ObjectId id : ids) {
      if (backup_min(cluster.service(0), {id}) > part.frontier()) {
        ++windows_with_spread;
        break;
      }
    }
  }
  EXPECT_GT(part.frontier(), TimePoint::zero());
  EXPECT_GT(windows_with_spread, 0u);
}

TEST(GroupPartitionFrontier, OlderAppliedTimestampNeverLowersTheFrontier) {
  core::ServiceParams sp;
  sp.seed = 99;
  sp.durable = true;
  sp.checkpoint_every = 8;
  core::RtpbService service(std::move(sp));
  service.start();
  ASSERT_TRUE(service.register_object(light_spec(1)).ok());
  std::vector<std::unique_ptr<GroupPartition>> parts;
  parts.push_back(std::make_unique<GroupPartition>(0, service));
  GroupPartition& part = *parts.front();
  part.track(1);
  GroupPartition::wire_mesh(parts);

  // Run until the successor backup's WAL holds records past its last
  // checkpoint, so tearing the WAL rolls the backup back.
  store::SimStorageDevice& wal = *service.wal_device(1);
  const Duration window = service.link_delay_bound();
  for (int k = 0; k < 1000 || (wal.size() == 0 && k < 2000); ++k) {
    const TimePoint now = service.simulator().now();
    part.begin_window(now);
    part.advance_to(now + window);
    part.end_window(now + window);
  }
  ASSERT_GT(wal.size(), 0u);
  const TimePoint before = part.frontier();
  ASSERT_GT(before, TimePoint::zero());

  service.crash_backup();
  wal.tear_tail(wal.size());
  service.restart_backup(0);
  // The restarted backup holds its checkpoint: an older applied state.
  const core::ObjectState* state = service.backup().store().peek(1);
  ASSERT_NE(state, nullptr);
  ASSERT_GT(state->version, 0u);
  ASSERT_LT(state->origin_timestamp, before);
  part.end_window(service.simulator().now());
  EXPECT_EQ(part.frontier(), before);
}

// ---- sharded deployment ---------------------------------------------------
// The multi-group (sharded) deployment's end-to-end guarantees: stable
// frontiers travel between groups, and a cross-group constraint is checked
// on both sides before either side commits.

TEST(ShardCluster, FrontierFramesCrossTheWire) {
  PartitionedCluster cluster(cluster_params(3));
  cluster.start();
  core::ObjectId next = 1;
  for (std::uint32_t g = 0; g < 3; ++g) {
    ASSERT_TRUE(cluster.register_object_in(g, light_spec(next++)).ok());
  }
  cluster.run_for(seconds(2), 3);
  cluster.finish();
  EXPECT_GT(cluster.frontier_records_published(), 0u);
  EXPECT_GT(cluster.frontier_records_ingested(), 0u);
  for (std::uint32_t g = 0; g < 3; ++g) {
    // After two seconds of replication every group's stable frontier has
    // moved off the epoch origin, but never past the present.
    const TimePoint local = cluster.partition(g).frontier();
    EXPECT_GT(local, TimePoint::zero()) << "group " << g;
    EXPECT_LT(local, cluster.now()) << "group " << g;
    // Every receiving primary merged every peer's frontier: learned from
    // the exchange, not by local computation.
    for (std::uint32_t peer = 0; peer < 3; ++peer) {
      if (peer == g) continue;
      EXPECT_GT(cluster.service(g).acting_primary().peer_frontier(peer), TimePoint::zero())
          << "group " << g << " never observed group " << peer;
    }
  }
}

TEST(ShardCluster, CrossGroupConstraintChecksBothSidesBeforeCommitting) {
  PartitionedCluster cluster(cluster_params(2));
  cluster.start();
  ASSERT_TRUE(cluster.register_object_in(0, light_spec(1)).ok());
  ASSERT_TRUE(cluster.register_object_in(1, light_spec(2)).ok());

  auto constraints_in = [&](std::uint32_t g) {
    return cluster.service(g).acting_primary().admission().constraints().size();
  };

  // A partner that was never registered is rejected before anything
  // commits: neither group may be left holding a one-sided cap.
  EXPECT_FALSE(cluster.add_constraint({1, 9999, millis(300)}).ok());
  EXPECT_EQ(constraints_in(0), 0u);
  EXPECT_EQ(constraints_in(1), 0u);
  EXPECT_TRUE(cluster.cross_constraints().empty());

  ASSERT_TRUE(cluster.add_constraint({1, 2, millis(300)}).ok());
  ASSERT_EQ(cluster.cross_constraints().size(), 1u);
  EXPECT_EQ(constraints_in(0), 1u);
  EXPECT_EQ(constraints_in(1), 1u);
  EXPECT_LE(cluster.service(0).acting_primary().admission().update_period(1), millis(300));
  EXPECT_LE(cluster.service(1).acting_primary().admission().update_period(2), millis(300));

  // The runtime form of δ_ij: after replication both frontiers are within
  // a generous delta of now, but not within a one-nanosecond delta.
  cluster.run_for(seconds(2), 2);
  cluster.finish();
  EXPECT_TRUE(cluster.cross_constraint_satisfied({1, 2, seconds(10)}, cluster.now()));
  EXPECT_FALSE(cluster.cross_constraint_satisfied({1, 2, nanos(1)}, cluster.now()));
}

}  // namespace
}  // namespace rtpb::psim
