// Multi-backup chaos: N-backup chains (N ∈ {2, 3}) driven through the
// full kill → promote → re-follow → recruit cycle under duplication,
// reorder and burst-loss faults, with every oracle armed — including the
// unconditional no-cross-epoch-apply oracle.  The partition seeds run the
// harder split-brain arc that epoch fencing must resolve, and the final
// test disables fencing to prove the oracle actually catches the bug
// class (a silent oracle proves nothing).
#include <gtest/gtest.h>

#include "chaos/harness.hpp"
#include "chaos/sabotage.hpp"

namespace rtpb::chaos {
namespace {

ChaosOptions chain_opts(std::size_t backups) {
  ChaosOptions opts;
  opts.backups = backups;
  opts.duration = seconds(14);      // long enough for the crash family
  opts.crash_probability = 1.0;     // every seed runs the failover arc...
  opts.crash_backup_bias = 0.0;     // ...by killing the primary
  return opts;
}

void expect_full_cycle(const SeedReport& report) {
  bool crashed = false;
  bool recruited = false;
  for (const std::string& label : report.fired) {
    if (label.find("crash-primary") != std::string::npos) crashed = true;
    if (label.find("add-standby") != std::string::npos) recruited = true;
  }
  EXPECT_TRUE(crashed) << "seed " << report.seed << " never crashed the primary";
  EXPECT_TRUE(recruited) << "seed " << report.seed << " never recruited a standby";
}

TEST(ChaosMultiBackup, TwoBackupChainSurvivesFailoverSweep) {
  const ChaosOptions opts = chain_opts(2);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const SeedReport report = run_seed(seed, opts);
    EXPECT_TRUE(report.ok()) << report.summary() << "\n" << report.reproducer;
    EXPECT_EQ(report.cross_epoch_applies, 0u);
    expect_full_cycle(report);
  }
}

TEST(ChaosMultiBackup, ThreeBackupChainSurvivesFailoverSweep) {
  const ChaosOptions opts = chain_opts(3);
  for (std::uint64_t seed = 101; seed <= 108; ++seed) {
    const SeedReport report = run_seed(seed, opts);
    EXPECT_TRUE(report.ok()) << report.summary() << "\n" << report.reproducer;
    EXPECT_EQ(report.cross_epoch_applies, 0u);
    expect_full_cycle(report);
  }
}

TEST(ChaosMultiBackup, FencedPartitionResolvesSplitBrain) {
  // The old primary survives the partition and keeps transmitting; epoch
  // fencing must depose it through the surviving backup, visibly (stale
  // traffic fenced), and without a single cross-epoch apply.
  ChaosOptions opts;
  opts.backups = 2;
  opts.duration = seconds(14);
  opts.enable_partition = true;
  std::uint64_t fenced = 0;
  for (std::uint64_t seed = 201; seed <= 204; ++seed) {
    const SeedReport report = run_seed(seed, opts);
    EXPECT_TRUE(report.ok()) << report.summary() << "\n" << report.reproducer;
    EXPECT_EQ(report.cross_epoch_applies, 0u);
    fenced += report.epoch_rejections;
  }
  EXPECT_GT(fenced, 0u) << "fencing never rejected anything: partition seeds "
                           "are not exercising the split-brain arc";
}

TEST(ChaosMultiBackup, UnfencedPartitionIsCaughtByCrossEpochOracle) {
  ChaosOptions opts;
  opts.duration = seconds(14);
  find_sabotage("split-brain")->plant(opts);

  const SeedReport report = run_seed(1, opts);
  ASSERT_FALSE(report.ok()) << "disabled fencing under a partition must be caught";
  bool found = false;
  for (const OracleViolation& v : report.violations) {
    if (v.oracle == std::string("cross-epoch-apply")) found = true;
  }
  EXPECT_TRUE(found) << "expected a cross-epoch-apply violation";
  EXPECT_GT(report.cross_epoch_applies, 0u);
}

}  // namespace
}  // namespace rtpb::chaos
