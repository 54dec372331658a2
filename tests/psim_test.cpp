// Parallel execution engine: SPSC queue, spin barrier, driver windowing,
// and the partitioned cluster's thread-count-invariant digests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "protocol_facts.hpp"
#include "psim/barrier.hpp"
#include "psim/driver.hpp"
#include "psim/partitioned.hpp"
#include "psim/spsc.hpp"

namespace rtpb::psim {
namespace {

// ---- SpscQueue ----------------------------------------------------------

TEST(SpscQueue, FifoOrderAndEmpty) {
  SpscQueue<int> q(8);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop().has_value());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_FALSE(q.empty());
  for (int i = 0; i < 5; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, ReportsOverflowInsteadOfBlocking) {
  SpscQueue<int> q(3);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_FALSE(q.push(4));  // full: capacity slots are usable
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_TRUE(q.push(4));  // freed slot is reusable (ring wraps)
}

TEST(SpscQueue, WrapsAroundManyTimes) {
  SpscQueue<std::uint64_t> q(4);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(q.push(i));
    ASSERT_EQ(q.pop().value(), i);
  }
}

TEST(SpscQueue, ConcurrentProducerConsumer) {
  SpscQueue<std::uint64_t> q(16);
  constexpr std::uint64_t kCount = 100000;
  std::uint64_t sum = 0;
  std::thread consumer([&] {
    std::uint64_t received = 0;
    while (received < kCount) {
      if (auto v = q.pop()) {
        sum += *v;
        ++received;
      }
    }
  });
  for (std::uint64_t i = 1; i <= kCount; ++i) {
    while (!q.push(i)) {
    }
  }
  consumer.join();
  EXPECT_EQ(sum, kCount * (kCount + 1) / 2);
}

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
    cluster.service(g).simulator().trace().enable();
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
  // Each publish fans out to 2 peers; the final window's records may
  // still sit in the queues, never drained.
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
  ASSERT_EQ(cluster.directory().group_of(1), 0u);
  ASSERT_EQ(cluster.directory().group_of(3), 0u);
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
    const TimePoint local = cluster.partition(g).frontier_tracker().frontier();
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
