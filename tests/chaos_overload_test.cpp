// Overload fault family + the no-silent-violation oracle: deterministic
// schedules and digests, flag gating, clean sweeps with graceful
// degradation on, and the sabotage drill proving the oracle catches a
// service that violates windows without renegotiating.
#include <gtest/gtest.h>

#include <algorithm>

#include "chaos/harness.hpp"
#include "chaos/sabotage.hpp"

namespace rtpb::chaos {
namespace {

using core::Fault;
using core::FaultKind;

bool is_overload(FaultKind k) {
  return k == FaultKind::kCpuSpike || k == FaultKind::kThrottleBandwidth ||
         k == FaultKind::kInflateLatency;
}

ChaosOptions overload_opts() {
  ChaosOptions opts;
  opts.enable_overload = true;
  return opts;
}

TEST(ChaosOverload, ScheduleIsGatedByTheFlagAndSeedStable) {
  const ChaosSchedule off = generate_schedule(9, ChaosOptions{});
  EXPECT_TRUE(std::none_of(off.events.begin(), off.events.end(),
                           [](const Fault& e) { return is_overload(e.kind); }))
      << "overload events must not appear unless opted into";

  const ChaosSchedule a = generate_schedule(9, overload_opts());
  const ChaosSchedule b = generate_schedule(9, overload_opts());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].until, b.events[i].until);
    EXPECT_DOUBLE_EQ(a.events[i].probability, b.events[i].probability);
    EXPECT_EQ(a.events[i].extra, b.events[i].extra);
  }
  EXPECT_TRUE(std::any_of(a.events.begin(), a.events.end(),
                          [](const Fault& e) { return is_overload(e.kind); }))
      << "the overload stream should actually generate events";
}

TEST(ChaosOverload, OverloadStreamIsDecoupledFromOtherFamilies) {
  // Turning overload on must not shift what the loss/link/crash streams
  // generate — the family draws from its own derived sub-seed.
  const ChaosSchedule without = generate_schedule(13, ChaosOptions{});
  const ChaosSchedule with = generate_schedule(13, overload_opts());

  auto non_overload = [](const ChaosSchedule& s) {
    std::vector<Fault> out;
    for (const Fault& e : s.events) {
      if (!is_overload(e.kind)) out.push_back(e);
    }
    return out;
  };
  const auto base = non_overload(without);
  const auto kept = non_overload(with);
  ASSERT_EQ(base.size(), kept.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].kind, kept[i].kind);
    EXPECT_EQ(base[i].at, kept[i].at);
    EXPECT_DOUBLE_EQ(base[i].probability, kept[i].probability);
  }
}

TEST(ChaosOverload, SameSeedTwiceIsBitIdentical) {
  ChaosOptions opts = overload_opts();
  opts.duration = seconds(10);
  const SeedReport a = run_seed(5, opts);
  const SeedReport b = run_seed(5, opts);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.trace_events, b.trace_events);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.fired, b.fired);
  EXPECT_EQ(a.violation_count, b.violation_count);
  EXPECT_EQ(a.updates_applied, b.updates_applied);
  EXPECT_EQ(a.updates_shed, b.updates_shed);
  EXPECT_EQ(a.qos_downgrades, b.qos_downgrades);
  EXPECT_EQ(a.qos_restores, b.qos_restores);
  EXPECT_EQ(a.transfer_give_ups, b.transfer_give_ups);
  EXPECT_GT(a.client_writes, 0u);
}

TEST(ChaosOverload, SweepStaysCleanWithDegradationOn) {
  // With shedding + renegotiation enabled, overload seeds must produce
  // zero oracle violations: every window excursion is announced.
  const ChaosOptions opts = overload_opts();
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const SeedReport report = run_seed(seed, opts);
    EXPECT_TRUE(report.ok()) << report.summary() << "\n" << report.reproducer;
  }
}

TEST(ChaosOverload, DegradationActivityShowsUpInTheReport) {
  // Seed 1 is a known-busy overload seed (also used by the sabotage
  // drill): graceful degradation must actually engage, not pass idle.
  const SeedReport report = run_seed(1, overload_opts());
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.qos_downgrades, 0u);
}

TEST(ChaosOverload, NoSheddingSabotageIsCaughtByTheSilentViolationOracle) {
  // The oracle self-test: degradation off under pure overload must be
  // caught, and caught *as* a silent violation.
  ChaosOptions opts;
  find_sabotage("no-shedding")->plant(opts);

  bool failed = false;
  bool silent = false;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const SeedReport report = run_seed(seed, opts);
    failed = failed || !report.ok();
    for (const OracleViolation& v : report.violations) {
      if (v.oracle == "no-silent-violation") silent = true;
    }
  }
  ASSERT_TRUE(failed) << "sabotage was not caught — oracle gap";
  EXPECT_TRUE(silent) << "must be caught by no-silent-violation specifically";
}

}  // namespace
}  // namespace rtpb::chaos
