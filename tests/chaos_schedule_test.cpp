// Schedule generation: pure function of (seed, options), quantised so the
// rendered reproducer is exact, sorted, bounded, and with fault epochs
// that actually cover the faults they excuse.
#include <gtest/gtest.h>

#include <cmath>

#include "chaos/schedule.hpp"

namespace rtpb::chaos {
namespace {

using core::Fault;
using core::FaultKind;

TEST(ChaosSchedule, GenerationIsPure) {
  const ChaosOptions opts;
  const ChaosSchedule a = generate_schedule(5, opts);
  const ChaosSchedule b = generate_schedule(5, opts);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].until, b.events[i].until);
    EXPECT_DOUBLE_EQ(a.events[i].probability, b.events[i].probability);
    EXPECT_EQ(a.events[i].extra, b.events[i].extra);
    EXPECT_EQ(a.events[i].burst_length, b.events[i].burst_length);
  }
  EXPECT_EQ(a.service_seed, b.service_seed);
}

TEST(ChaosSchedule, EventsAreSortedAndQuantised) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const ChaosSchedule s = generate_schedule(seed, ChaosOptions{});
    EXPECT_FALSE(s.events.empty());
    for (std::size_t i = 1; i < s.events.size(); ++i) {
      EXPECT_LE(s.events[i - 1].at, s.events[i].at) << "seed " << seed;
    }
    for (const Fault& e : s.events) {
      // 1 ms time grid and 0.01 probability grid: what the reproducer
      // prints with %.2f / at_ms() is exactly what ran.
      EXPECT_EQ(e.at.nanos() % 1'000'000, 0) << "seed " << seed;
      EXPECT_EQ(e.until.nanos() % 1'000'000, 0) << "seed " << seed;
      const double cents = e.probability * 100.0;
      EXPECT_NEAR(cents, std::round(cents), 1e-9) << "seed " << seed;
      EXPECT_LE(e.until.nanos(), ChaosOptions{}.duration.nanos());
    }
  }
}

TEST(ChaosSchedule, LinkLossProbabilitiesRespectDetectorSafetyCap) {
  // Genuine link faults are capped so they cannot plausibly starve the
  // hardened failure detector into a false (split-brain) failover.
  // Update-stream loss storms are exempt: heartbeats still flow there.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const ChaosSchedule s = generate_schedule(seed, ChaosOptions{});
    for (const Fault& e : s.events) {
      if (e.kind == FaultKind::kLinkDegradation) {
        EXPECT_LE(e.probability, 0.35) << "seed " << seed;
      }
      if (e.kind == FaultKind::kBurstLoss) {
        EXPECT_LE(e.probability, 0.04) << "seed " << seed;
        EXPECT_LE(e.burst_length, 6u) << "seed " << seed;
      }
    }
  }
}

TEST(ChaosSchedule, DisablingFamiliesRemovesTheirEvents) {
  ChaosOptions opts;
  opts.enable_loss_storms = false;
  opts.enable_link_faults = false;
  opts.enable_crashes = false;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    EXPECT_TRUE(generate_schedule(seed, opts).events.empty()) << "seed " << seed;
  }
}

TEST(ChaosSchedule, EpochsCoverEveryFaultInterval) {
  const ChaosOptions opts;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const ChaosSchedule s = generate_schedule(seed, opts);
    const std::vector<FaultEpoch> epochs = declared_epochs(s, opts);
    for (const Fault& e : s.events) {
      bool covered = false;
      for (const FaultEpoch& ep : epochs) {
        if (ep.from <= e.at && e.until <= ep.until) covered = true;
      }
      EXPECT_TRUE(covered) << "seed " << seed << ": event at " << e.at.to_string()
                           << " not covered by any declared epoch";
    }
  }
}

TEST(ChaosSchedule, CrashEpochExtendsThroughRecruitmentPlusGrace) {
  ChaosOptions opts;
  opts.crash_probability = 1.0;
  // Find a seed whose schedule crashes, then check its epoch shape.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const ChaosSchedule s = generate_schedule(seed, opts);
    const Fault* crash = nullptr;
    const Fault* standby = nullptr;
    for (const Fault& e : s.events) {
      if (e.kind == FaultKind::kCrashPrimary || e.kind == FaultKind::kCrashBackup)
        crash = &e;
      if (e.kind == FaultKind::kAddStandby) standby = &e;
    }
    ASSERT_NE(crash, nullptr) << "seed " << seed;
    ASSERT_NE(standby, nullptr) << "seed " << seed;
    bool found = false;
    for (const FaultEpoch& ep : declared_epochs(s, opts)) {
      if (ep.cause == crash->kind) {
        found = true;
        EXPECT_EQ(ep.from, crash->at);
        EXPECT_EQ(ep.until, standby->at + opts.failover_grace);
      }
    }
    EXPECT_TRUE(found);
    return;  // one crashing seed is enough
  }
}

TEST(ChaosSchedule, WorkloadIsPureAndPlausible) {
  const ChaosOptions opts;
  const Workload a = generate_workload(13, opts);
  const Workload b = generate_workload(13, opts);
  ASSERT_EQ(a.objects.size(), opts.objects);
  ASSERT_EQ(a.objects.size(), b.objects.size());
  for (std::size_t i = 0; i < a.objects.size(); ++i) {
    EXPECT_EQ(a.objects[i].id, b.objects[i].id);
    EXPECT_EQ(a.objects[i].client_period, b.objects[i].client_period);
    EXPECT_EQ(a.objects[i].size_bytes, b.objects[i].size_bytes);
    // The window formula needs δ_B − δ_P > ℓ and p ≤ δ_P to admit.
    EXPECT_GT(a.objects[i].delta_backup, a.objects[i].delta_primary);
    EXPECT_LE(a.objects[i].client_period, a.objects[i].delta_primary);
  }
}

TEST(ChaosSchedule, ReproducerContainsEveryScheduledAction) {
  ChaosOptions opts;
  opts.crash_probability = 1.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const ChaosSchedule s = generate_schedule(seed, opts);
    const std::string repro = render_reproducer(s, opts);
    std::size_t plan_calls = 0;
    for (std::size_t pos = repro.find("plan."); pos != std::string::npos;
         pos = repro.find("plan.", pos + 1)) {
      ++plan_calls;
    }
    // One call per event plus the trailing plan.arm().
    EXPECT_EQ(plan_calls, s.events.size() + 1) << "seed " << seed << "\n" << repro;
    EXPECT_NE(repro.find("service.run_for"), std::string::npos);
  }
}

}  // namespace
}  // namespace rtpb::chaos
