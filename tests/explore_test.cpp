// Bounded model-checking harness tests (label: explore — excluded from
// the tier-1 gate because each case runs tens to hundreds of full
// service trajectories).
//
// The two load-bearing claims:
//   1. a healthy 2-node configuration survives the exhaustive bounded
//      sweep with zero violations (the explorer finds nothing to report);
//   2. a sabotaged configuration (fencing off under a partition) yields a
//      counterexample for the right oracle, the artifact round-trips
//      through its text form, and the replay reproduces the violation;
//      every mode the explorer can plant is caught by its own oracle.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "explore/explorer.hpp"
#include "util/log.hpp"

namespace rtpb {
namespace {

class ExploreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Crash trajectories log WARN storms by design.
    Logger::instance().set_level(LogLevel::kError);
  }
};

/// The acceptance scenario: 2 nodes, 1 object, crash + recruit candidates
/// and one droppable frame.  Kept in one place so every test explores the
/// same protocol surface.
explore::ExploreConfig healthy_two_node() {
  explore::ExploreConfig cfg;
  cfg.backups = 1;
  cfg.objects = 1;
  cfg.crash_primary_at.push_back(millis(251));
  cfg.crash_backup_at.push_back(millis(451));
  cfg.add_standby_at.push_back(millis(601));
  cfg.bounds.drop_from = TimePoint::zero() + millis(101);
  cfg.bounds.drop_until = TimePoint::zero() + millis(401);
  return cfg;
}

explore::ExploreConfig split_brain_sabotage() {
  explore::ExploreConfig cfg;
  EXPECT_TRUE(explore::plant(*chaos::find_sabotage("split-brain"), cfg));
  return cfg;
}

TEST_F(ExploreTest, HealthyTwoNodeSweepIsExhaustiveAndClean) {
  const explore::ExploreReport report = explore::explore(healthy_two_node());
  EXPECT_TRUE(report.ok()) << report.summary();
  // Exhaustive means exhaustive: nothing capped, nothing truncated.
  EXPECT_FALSE(report.hit_trajectory_cap);
  EXPECT_EQ(report.truncated, 0u);
  // And it genuinely explored: multiple trajectories, a real state count.
  EXPECT_GT(report.trajectories, 10u);
  EXPECT_GT(report.states_visited, 10u);
  EXPECT_GT(report.choice_points, 100u);
}

TEST_F(ExploreTest, DefaultTrajectoryIsViolationFreeAndReplayable) {
  const explore::ExploreConfig cfg = healthy_two_node();
  const explore::TrajectoryResult a = explore::run_trajectory(cfg, {});
  EXPECT_TRUE(a.violations.empty());
  EXPECT_FALSE(a.choice_bound_hit);
  ASSERT_FALSE(a.choices.empty());
  // Replaying the recorded decisions is a fixed point: same choices, same
  // state hashes, same final state (determinism of the trajectory runner).
  const explore::TrajectoryResult b = explore::run_trajectory(cfg, a.decisions());
  EXPECT_EQ(a.decisions(), b.decisions());
  EXPECT_EQ(a.state_hashes, b.state_hashes);
  EXPECT_EQ(a.final_hash, b.final_hash);
}

TEST_F(ExploreTest, BranchReachesItsParentsStatesAlongTheSharedPrefix) {
  // explore() skips hashing the replayed prefix because a branch taken at
  // choice point i passes through exactly the parent's states at 0..i.
  const explore::ExploreConfig cfg = healthy_two_node();
  const explore::TrajectoryResult parent = explore::run_trajectory(cfg, {});
  const std::vector<std::uint16_t> decisions = parent.decisions();
  ASSERT_FALSE(decisions.empty());
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    std::vector<std::uint16_t> prefix(decisions.begin(),
                                      decisions.begin() + static_cast<std::ptrdiff_t>(i));
    prefix.push_back(1);
    const explore::TrajectoryResult branch = explore::run_trajectory(cfg, prefix);
    ASSERT_GT(branch.state_hashes.size(), i);
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_EQ(branch.state_hashes[j], parent.state_hashes[j]) << "branch " << i << " at " << j;
      EXPECT_EQ(branch.choices[j].kind, parent.choices[j].kind);
    }
  }
}

TEST_F(ExploreTest, CrashTrajectoryFailsOverCleanly) {
  // Force the crash-primary candidate (a trace of all-defaults except a 1
  // at its choice point) and check the run stays violation-free: failover
  // + recruit + catch-up inside the declared epoch.
  const explore::ExploreConfig cfg = healthy_two_node();
  const explore::TrajectoryResult base = explore::run_trajectory(cfg, {});
  std::vector<std::uint16_t> trace;
  bool found = false;
  for (const explore::Choice& c : base.choices) {
    if (c.kind == sim::ChoiceKind::kFault && c.fault == core::FaultKind::kCrashPrimary) {
      trace.push_back(1);
      found = true;
      break;
    }
    trace.push_back(0);
  }
  ASSERT_TRUE(found) << "crash-primary candidate never offered";
  const explore::TrajectoryResult res = explore::run_trajectory(cfg, trace);
  EXPECT_TRUE(res.violations.empty());
  // The crash and its deterministic standby recovery both happened.
  ASSERT_EQ(res.actions.size(), 2u);
  EXPECT_EQ(res.actions[0].kind, core::FaultKind::kCrashPrimary);
  EXPECT_EQ(res.actions[1].kind, core::FaultKind::kAddStandby);
}

TEST_F(ExploreTest, SplitBrainSabotageYieldsReplayableCounterexample) {
  const explore::ExploreReport report = explore::explore(split_brain_sabotage());
  ASSERT_FALSE(report.counterexamples.empty()) << report.summary();
  const explore::Counterexample& ce = report.counterexamples.front();
  EXPECT_EQ(ce.oracle, "cross-epoch-apply");
  // The minimized witness replays to the same violation.
  EXPECT_TRUE(explore::reproduces(explore::replay(ce), ce.oracle));
  // And it names the partition as the fault that did it.
  ASSERT_FALSE(ce.actions.empty());
  EXPECT_EQ(ce.actions.front().kind, core::FaultKind::kPartitionPrimary);
}

TEST_F(ExploreTest, CounterexampleTextRoundTripsAndStillReproduces) {
  explore::ExploreReport report = explore::explore(split_brain_sabotage());
  ASSERT_FALSE(report.counterexamples.empty());
  const explore::Counterexample& ce = report.counterexamples.front();

  const std::string text = ce.to_text();
  const auto parsed = explore::parse_counterexample(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->oracle, ce.oracle);
  EXPECT_EQ(parsed->trace, ce.trace);
  EXPECT_EQ(parsed->config.backups, ce.config.backups);
  EXPECT_EQ(parsed->config.epoch_fencing, ce.config.epoch_fencing);
  EXPECT_EQ(parsed->config.partition_at.size(), ce.config.partition_at.size());
  EXPECT_EQ(parsed->config.bounds.horizon, ce.config.bounds.horizon);
  // The parsed artifact — not the in-memory one — reproduces the bug:
  // exactly what chaos_main --replay does with the emitted file.
  EXPECT_TRUE(explore::reproduces(explore::replay(*parsed), ce.oracle));
  // The embedded FaultPlan snippet names the partition reproducer.
  EXPECT_NE(ce.fault_plan().find("partition_primary"), std::string::npos);
}

TEST_F(ExploreTest, ParserRejectsGarbage) {
  EXPECT_FALSE(explore::parse_counterexample("").has_value());
  EXPECT_FALSE(explore::parse_counterexample("not a counterexample\n").has_value());
  // Versioned header but no oracle: still not replayable.
  EXPECT_FALSE(
      explore::parse_counterexample("# rtpb-explore counterexample v1\nbackups 2\n").has_value());
  // Unknown candidate verbs cannot be replayed faithfully.
  EXPECT_FALSE(explore::parse_counterexample("# rtpb-explore counterexample v1\n"
                                             "oracle staleness-window\n"
                                             "candidate set-cpu-on-fire 1000\n")
                   .has_value());
  // So can unknown fault actions; drop-frame is the one non-fault action.
  EXPECT_FALSE(explore::parse_counterexample("# rtpb-explore counterexample v1\n"
                                             "oracle staleness-window\n"
                                             "action set-cpu-on-fire 0 0 0 1000\n")
                   .has_value());
  EXPECT_TRUE(explore::parse_counterexample("# rtpb-explore counterexample v1\n"
                                            "oracle staleness-window\n"
                                            "action drop-frame 1 2 3 1000\n")
                  .has_value());
  // Every value is read whole: a malformed, missing or extra value, or a
  // scenario with no backup or no object, makes the artifact unreplayable
  // rather than reading as 0, as "off" or as a shorter trace.
  const auto with = [](const std::string& line) {
    return explore::parse_counterexample(
        "# rtpb-explore counterexample v1\noracle staleness-window\n" + line + "\n");
  };
  for (const char* bad : {"backups two", "backups 0", "objects 0", "objects 1 2", "seed 1x",
                          "fencing x", "fencing 2", "trace 0 x 0", "trace 0 70000",
                          "misses -1", "horizon-ns", "grace-ns 5ms", "candidate crash-primary",
                          "action drop-frame 1 2 3", "oracle"}) {
    EXPECT_FALSE(with(bad).has_value()) << bad;
  }
  const auto good = with("trace 0 1 0");
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->trace, (std::vector<std::uint16_t>{0, 1, 0}));
  for (const char* fine : {"backups 2", "objects 3", "fencing 0", "trace", "grace-ns -5"}) {
    EXPECT_TRUE(with(fine).has_value()) << fine;
  }
}

TEST_F(ExploreTest, ReductionsOnlyPrune_NeverChangeTheVerdict) {
  // With visited-state pruning off, the sweep does strictly more work but
  // must reach the same verdict on the healthy scenario.  (Sleep sets stay
  // on: a 2-node run has no commuting deliveries to reorder anyway.)
  explore::ExploreConfig cfg = healthy_two_node();
  // Narrow the drop window to keep the unpruned sweep quick.
  cfg.bounds.drop_until = TimePoint::zero() + millis(201);
  const explore::ExploreReport pruned = explore::explore(cfg);
  cfg.prune_visited = false;
  const explore::ExploreReport full = explore::explore(cfg);
  EXPECT_TRUE(pruned.ok());
  EXPECT_TRUE(full.ok());
  EXPECT_GE(full.trajectories, pruned.trajectories);
}

/// The sabotage modes the explorer can plant, by name (gtest prints them).
std::vector<std::string_view> explorer_sabotages() {
  std::vector<std::string_view> names;
  for (const chaos::Sabotage& s : chaos::kSabotages) {
    explore::ExploreConfig probe;
    if (explore::plant(s, probe)) names.push_back(s.name);
  }
  return names;
}

TEST(ExploreSabotageModes, TheExplorerPlantsThreeModes) {
  EXPECT_EQ(explorer_sabotages(),
            (std::vector<std::string_view>{"no-failover", "split-brain", "torn-write"}));
}

class ExploreSabotage : public ::testing::TestWithParam<std::string_view> {
 protected:
  void SetUp() override { Logger::instance().set_level(LogLevel::kError); }
};

TEST_P(ExploreSabotage, CounterexampleNamesItsOwnOracle) {
  const chaos::Sabotage& mode = *chaos::find_sabotage(GetParam());
  explore::ExploreConfig cfg;
  ASSERT_TRUE(explore::plant(mode, cfg));
  const explore::ExploreReport report = explore::explore(cfg);
  ASSERT_FALSE(report.counterexamples.empty()) << report.summary();
  EXPECT_EQ(report.counterexamples.front().oracle, mode.oracle);
}

INSTANTIATE_TEST_SUITE_P(Modes, ExploreSabotage, ::testing::ValuesIn(explorer_sabotages()),
                         [](const ::testing::TestParamInfo<std::string_view>& param_info) {
                           std::string name(param_info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace rtpb
