// The oracles must stay quiet on a healthy-but-stormy service and must
// fire when the service is deliberately broken.  Both directions matter:
// a silent oracle proves nothing until it has caught a planted bug, and
// every planted bug (chaos/sabotage.hpp) must be caught by its own oracle.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "chaos/harness.hpp"
#include "chaos/sabotage.hpp"

namespace rtpb::chaos {
namespace {

TEST(ChaosOracles, DefaultSeedsRunCleanUnderFaults) {
  ChaosOptions opts;
  opts.duration = seconds(8);
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    const SeedReport report = run_seed(seed, opts);
    EXPECT_TRUE(report.ok()) << report.summary() << "\n" << report.reproducer;
    EXPECT_GT(report.oracle_checks, 0u);
    EXPECT_GT(report.fired.size(), 0u) << "schedule should inject at least one fault";
  }
}

TEST(ChaosOracles, CrashFailoverSeedRunsClean) {
  ChaosOptions opts;  // default duration admits crash scenarios
  opts.crash_probability = 1.0;
  opts.crash_backup_bias = 0.0;  // force a primary crash + failover
  const SeedReport report = run_seed(9, opts);
  EXPECT_TRUE(report.ok()) << report.summary() << "\n" << report.reproducer;
  bool crashed = false;
  for (const std::string& label : report.fired) {
    if (label.find("crash-primary") != std::string::npos) crashed = true;
  }
  EXPECT_TRUE(crashed) << "expected the schedule to crash the primary";
}

TEST(ChaosOracles, DisabledFailoverIsCaughtWithReproducer) {
  // Plant the bug the harness exists to catch: a failure detector that
  // never declares.  The primary crashes, nobody takes over, and the
  // exactly-one-primary oracle must fire once the declared epoch closes.
  ChaosOptions opts;
  find_sabotage("no-failover")->plant(opts);

  const SeedReport report = run_seed(7, opts);
  ASSERT_FALSE(report.ok()) << "sabotaged failover must be caught";

  bool found = false;
  for (const OracleViolation& v : report.violations) {
    if (v.oracle == std::string("exactly-one-primary")) found = true;
  }
  EXPECT_TRUE(found) << "expected an exactly-one-primary violation";

  // The reproducer is ready to paste and names the killing action.
  EXPECT_NE(report.reproducer.find("crash_primary"), std::string::npos);
  EXPECT_NE(report.reproducer.find("plan.arm()"), std::string::npos);
  EXPECT_NE(report.reproducer.find("seed 7"), std::string::npos);
}

TEST(ChaosOracles, SlowUpdatesAreCaughtByStalenessWindow) {
  // Second planted bug: force a transmission period that dwarfs every
  // negotiated window.  No faults are injected, so nothing excuses the
  // violations and the staleness oracle must fire.
  ChaosOptions opts;
  opts.duration = seconds(5);
  find_sabotage("slow-updates")->plant(opts);

  const SeedReport report = run_seed(1, opts);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const OracleViolation& v : report.violations) {
    if (v.oracle == std::string("staleness-window")) found = true;
  }
  EXPECT_TRUE(found) << "expected a staleness-window violation";
}

TEST(ChaosOracles, ViolationCountKeepsCountingPastStorageCap) {
  ChaosOptions opts;
  opts.duration = seconds(10);
  find_sabotage("slow-updates")->plant(opts);

  const SeedReport report = run_seed(2, opts);
  ASSERT_FALSE(report.ok());
  EXPECT_GE(report.violation_count, report.violations.size());
}

/// The table's mode names: gtest prints them (a row would print as bytes).
std::vector<std::string_view> sabotage_names() {
  std::vector<std::string_view> names;
  for (const Sabotage& s : kSabotages) names.push_back(s.name);
  return names;
}

class SabotageTable : public ::testing::TestWithParam<std::string_view> {};

TEST_P(SabotageTable, SelfTestSweepFiresItsOwnOracle) {
  // chaos_main --seeds <seeds> --sabotage <mode> at default options: some
  // seed must fire the mode's own oracle, not merely some oracle.
  const Sabotage& mode = *find_sabotage(GetParam());
  ChaosOptions opts;
  mode.plant(opts);
  bool caught = false;
  for (std::uint64_t seed = 0; seed < mode.seeds && !caught; ++seed) {
    caught = mode.caught_by(run_seed(seed, opts).violations);
  }
  EXPECT_TRUE(caught) << mode.name << " was not caught by " << mode.oracle << " in "
                      << mode.seeds << " seeds";
}

INSTANTIATE_TEST_SUITE_P(Modes, SabotageTable, ::testing::ValuesIn(sabotage_names()),
                         [](const ::testing::TestParamInfo<std::string_view>& param_info) {
                           std::string name(param_info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace rtpb::chaos
