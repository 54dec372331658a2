// The explorer's runner pool (label: explore): explore() commits results
// in the serial DFS pop order, so every report field — and a minimized
// counterexample, byte for byte — must be the same at 1, 2 and 4 threads.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "explore/explorer.hpp"

namespace rtpb {
namespace {

/// The repository benchmark's explore_exhaustive scenario: 2 backups,
/// 2 objects, crash / crash / recruit candidates and a droppable frame.
explore::ExploreConfig two_backups_two_objects() {
  explore::ExploreConfig cfg;
  cfg.backups = 2;
  cfg.objects = 2;
  cfg.bounds.fault_budget = 2;
  cfg.bounds.max_choice_points = 1000;
  cfg.bounds.drop_from = TimePoint::zero() + millis(101);
  cfg.bounds.drop_until = TimePoint::zero() + millis(401);
  cfg.crash_primary_at.push_back(millis(251));
  cfg.crash_backup_at.push_back(millis(451));
  cfg.add_standby_at.push_back(millis(601));
  return cfg;
}

void expect_same_report(const explore::ExploreReport& serial,
                        const explore::ExploreReport& parallel, unsigned threads) {
  EXPECT_EQ(parallel.trajectories, serial.trajectories) << threads << " threads";
  EXPECT_EQ(parallel.choice_points, serial.choice_points) << threads << " threads";
  EXPECT_EQ(parallel.states_visited, serial.states_visited) << threads << " threads";
  EXPECT_EQ(parallel.pruned_visited, serial.pruned_visited) << threads << " threads";
  EXPECT_EQ(parallel.pruned_sleep, serial.pruned_sleep) << threads << " threads";
  EXPECT_EQ(parallel.truncated, serial.truncated) << threads << " threads";
  EXPECT_EQ(parallel.hit_trajectory_cap, serial.hit_trajectory_cap) << threads << " threads";
  EXPECT_EQ(parallel.summary(), serial.summary()) << threads << " threads";
  ASSERT_EQ(parallel.counterexamples.size(), serial.counterexamples.size()) << threads;
  for (std::size_t i = 0; i < serial.counterexamples.size(); ++i) {
    EXPECT_EQ(parallel.counterexamples[i].to_text(), serial.counterexamples[i].to_text())
        << threads << " threads";
  }
}

TEST(ExploreParallel, ExhaustiveSweepIsTheSameAtEveryThreadCount) {
  const explore::ExploreConfig cfg = two_backups_two_objects();
  const explore::ExploreReport serial = explore::explore(cfg, nullptr, 1);
  EXPECT_TRUE(serial.ok()) << serial.summary();
  EXPECT_FALSE(serial.hit_trajectory_cap);
  EXPECT_GT(serial.trajectories, 1000u);
  for (const unsigned threads : {2u, 4u}) {
    expect_same_report(serial, explore::explore(cfg, nullptr, threads), threads);
  }
}

TEST(ExploreParallel, CappedSweepIsTheSameAtEveryThreadCount) {
  // Runners speculate past the cap; those results must not be counted.
  explore::ExploreConfig cfg = two_backups_two_objects();
  cfg.bounds.max_trajectories = 150;
  const explore::ExploreReport serial = explore::explore(cfg, nullptr, 1);
  EXPECT_TRUE(serial.hit_trajectory_cap);
  EXPECT_EQ(serial.trajectories, 150u);
  for (const unsigned threads : {2u, 4u}) {
    expect_same_report(serial, explore::explore(cfg, nullptr, threads), threads);
  }
}

TEST(ExploreParallel, SplitBrainCounterexampleIsTheSameAtEveryThreadCount) {
  // Runners speculate past the violation, and minimize() runs each greedy
  // round's flips in parallel: the artifact must still be byte-identical.
  explore::ExploreConfig cfg;
  ASSERT_TRUE(explore::plant(*chaos::find_sabotage("split-brain"), cfg));
  const explore::ExploreReport serial = explore::explore(cfg, nullptr, 1);
  ASSERT_EQ(serial.counterexamples.size(), 1u) << serial.summary();
  EXPECT_EQ(serial.counterexamples.front().oracle, "cross-epoch-apply");
  for (const unsigned threads : {2u, 4u}) {
    expect_same_report(serial, explore::explore(cfg, nullptr, threads), threads);
  }
}

}  // namespace
}  // namespace rtpb
