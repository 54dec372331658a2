// Determinism regression for the chaos harness: the seed is the whole
// experiment, so running it twice must replay the identical trajectory —
// byte-identical trace digest and equal end-state metrics.  This is the
// contract that makes a failing seed a *reproducer* instead of a flake.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "chaos/harness.hpp"

namespace rtpb::chaos {
namespace {

using core::Fault;
using core::FaultKind;

ChaosOptions quick_opts() {
  ChaosOptions opts;
  opts.duration = seconds(8);  // below the crash threshold: pure network chaos
  return opts;
}

TEST(ChaosDeterminism, SameSeedTwiceIsBitIdentical) {
  const ChaosOptions opts = quick_opts();
  const SeedReport a = run_seed(11, opts);
  const SeedReport b = run_seed(11, opts);

  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.trace_events, b.trace_events);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.fired, b.fired);
  EXPECT_EQ(a.violation_count, b.violation_count);
  EXPECT_EQ(a.oracle_checks, b.oracle_checks);
  EXPECT_EQ(a.objects_admitted, b.objects_admitted);
  EXPECT_EQ(a.client_writes, b.client_writes);
  EXPECT_EQ(a.updates_applied, b.updates_applied);
  EXPECT_DOUBLE_EQ(a.avg_max_distance_ms, b.avg_max_distance_ms);
  EXPECT_DOUBLE_EQ(a.total_inconsistency_ms, b.total_inconsistency_ms);
  EXPECT_EQ(a.inconsistency_intervals, b.inconsistency_intervals);

  // The run actually did something worth digesting.
  EXPECT_GT(a.trace_events, 0u);
  EXPECT_GT(a.client_writes, 0u);
}

TEST(ChaosDeterminism, CrashSeedReplaysIdentically) {
  ChaosOptions opts;  // default 20 s: long enough for crash scenarios
  opts.crash_probability = 1.0;
  const SeedReport a = run_seed(3, opts);
  const SeedReport b = run_seed(3, opts);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.fired, b.fired);
  EXPECT_EQ(a.updates_applied, b.updates_applied);
}

TEST(ChaosDeterminism, TelemetryIsAPureObserver) {
  // The full cross-check of the observer contract: turning telemetry on
  // must not shift a single simulator event — byte-identical trace digest,
  // same event counts, same end-state metrics.  Checked per mode, because
  // each mode exercises different instrumentation sites.
  for (const char* mode : {"default", "no-batch", "overload"}) {
    ChaosOptions opts = quick_opts();
    if (std::string(mode) == "no-batch") opts.config.batch_updates = false;
    if (std::string(mode) == "overload") opts.enable_overload = true;
    ChaosOptions with_telemetry = opts;
    with_telemetry.telemetry = true;

    const SeedReport off = run_seed(17, opts);
    const SeedReport on = run_seed(17, with_telemetry);
    EXPECT_EQ(off.trace_digest, on.trace_digest) << "mode=" << mode;
    EXPECT_EQ(off.trace_events, on.trace_events) << "mode=" << mode;
    EXPECT_EQ(off.sim_events, on.sim_events) << "mode=" << mode;
    EXPECT_EQ(off.client_writes, on.client_writes) << "mode=" << mode;
    EXPECT_EQ(off.updates_applied, on.updates_applied) << "mode=" << mode;
    EXPECT_DOUBLE_EQ(off.avg_max_distance_ms, on.avg_max_distance_ms) << "mode=" << mode;
    // Telemetry was genuinely on — spans were collected.
    EXPECT_GT(on.spans_started, 0u) << "mode=" << mode;
    EXPECT_EQ(off.spans_started, 0u) << "mode=" << mode;
  }
}

TEST(ChaosDeterminism, DigestCrossMatrixStablePerModeDistinctAcrossModes) {
  // Every supported mode must replay bit-identically — and the modes must
  // actually diverge from each other (a shared digest across modes would
  // mean a knob is dead).
  struct Mode {
    const char* name;
    ChaosOptions opts;
  };
  std::vector<Mode> modes;
  {
    Mode m{"default", quick_opts()};
    modes.push_back(m);
  }
  {
    Mode m{"no-batch", quick_opts()};
    m.opts.config.batch_updates = false;
    modes.push_back(m);
  }
  {
    Mode m{"backups-2", quick_opts()};
    m.opts.backups = 2;
    modes.push_back(m);
  }
  {
    Mode m{"backups-3", quick_opts()};
    m.opts.backups = 3;
    modes.push_back(m);
  }
  {
    Mode m{"overload", quick_opts()};
    m.opts.enable_overload = true;
    modes.push_back(m);
  }

  std::set<std::uint64_t> digests;
  for (const Mode& m : modes) {
    const SeedReport a = run_seed(29, m.opts);
    const SeedReport b = run_seed(29, m.opts);
    EXPECT_EQ(a.trace_digest, b.trace_digest) << "mode " << m.name << " is not stable";
    EXPECT_EQ(a.fired, b.fired) << m.name;
    EXPECT_EQ(a.updates_applied, b.updates_applied) << m.name;
    EXPECT_EQ(a.violation_count, b.violation_count) << m.name;
    EXPECT_GT(a.client_writes, 0u) << m.name;
    digests.insert(a.trace_digest);

    // Observability plane on (telemetry + SLO monitor + flight recorder):
    // pure observers, so the digest must EQUAL the base run's — it joins
    // the per-mode equality check, never the cross-mode distinct set.
    ChaosOptions observed = m.opts;
    observed.telemetry = true;
    observed.flight_recorder = true;
    const SeedReport c = run_seed(29, observed);
    EXPECT_EQ(a.trace_digest, c.trace_digest)
        << "mode " << m.name << ": observers (recorder+slo) perturbed the trajectory";
    EXPECT_EQ(a.sim_events, c.sim_events) << m.name;
    EXPECT_EQ(a.updates_applied, c.updates_applied) << m.name;
    EXPECT_EQ(a.violation_count, c.violation_count) << m.name;
    EXPECT_GT(c.flight_events, 0u) << m.name << ": recorder was supposed to be on";
  }
  EXPECT_EQ(digests.size(), modes.size())
      << "two modes share a digest: some option no longer affects the run";
}

TEST(ChaosDeterminism, HealthFeedDoesNotPerturbTheTrace) {
  // The health feed is the one observer that DOES schedule events (its
  // periodic snapshot timer, tagged kTagObserver) — so fired event counts
  // may differ, but the protocol trajectory and its trace digest must not.
  ChaosOptions base = quick_opts();
  ChaosOptions with_feed = base;
  const std::string feed_path = ::testing::TempDir() + "health_determinism.jsonl";
  with_feed.health_jsonl_path = feed_path;

  const SeedReport off = run_seed(23, base);
  const SeedReport on = run_seed(23, with_feed);
  std::remove(feed_path.c_str());
  EXPECT_EQ(off.trace_digest, on.trace_digest)
      << "health feed snapshots changed the protocol trajectory";
  EXPECT_EQ(off.trace_events, on.trace_events);
  EXPECT_EQ(off.client_writes, on.client_writes);
  EXPECT_EQ(off.updates_applied, on.updates_applied);
  EXPECT_DOUBLE_EQ(off.avg_max_distance_ms, on.avg_max_distance_ms);
  EXPECT_GT(on.health_snapshots, 0u) << "feed was supposed to be on";
  EXPECT_EQ(off.health_snapshots, 0u);
}

TEST(ChaosDeterminism, DifferentSeedsDiverge) {
  const ChaosOptions opts = quick_opts();
  std::set<std::uint64_t> digests;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    digests.insert(run_seed(seed, opts).trace_digest);
  }
  EXPECT_EQ(digests.size(), 6u) << "distinct seeds must produce distinct traces";
}

TEST(ChaosDeterminism, FaultFamiliesDrawFromDecoupledStreams) {
  // Toggling the crash family off must not shift what the loss/link
  // streams generate — each family derives its own sub-seed.
  ChaosOptions with_crashes;
  with_crashes.crash_probability = 1.0;
  ChaosOptions without = with_crashes;
  without.enable_crashes = false;

  const ChaosSchedule a = generate_schedule(21, with_crashes);
  const ChaosSchedule b = generate_schedule(21, without);

  auto network_only = [](const ChaosSchedule& s) {
    std::vector<Fault> out;
    for (const Fault& e : s.events) {
      if (e.kind != FaultKind::kCrashPrimary && e.kind != FaultKind::kCrashBackup &&
          e.kind != FaultKind::kAddStandby) {
        out.push_back(e);
      }
    }
    return out;
  };
  const auto net_a = network_only(a);
  const auto net_b = network_only(b);
  ASSERT_EQ(net_a.size(), net_b.size());
  for (std::size_t i = 0; i < net_a.size(); ++i) {
    EXPECT_EQ(net_a[i].kind, net_b[i].kind);
    EXPECT_EQ(net_a[i].at, net_b[i].at);
    EXPECT_EQ(net_a[i].until, net_b[i].until);
    EXPECT_DOUBLE_EQ(net_a[i].probability, net_b[i].probability);
  }
  EXPECT_GT(a.events.size(), net_a.size()) << "crash seed should include crash events";
}

TEST(ChaosDeterminism, ServiceSeedDiffersFromChaosSeed) {
  // The service must not consume the raw chaos seed, or workload and
  // schedule generation would correlate with simulation randomness.
  const ChaosSchedule s = generate_schedule(42, ChaosOptions{});
  EXPECT_EQ(s.seed, 42u);
  EXPECT_NE(s.service_seed, 42u);
}

}  // namespace
}  // namespace rtpb::chaos
