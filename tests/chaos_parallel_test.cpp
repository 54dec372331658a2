// Digest-purity oracle of the parallel chaos engine: every (shard, seed)
// stream must be bit-reproducible at ANY thread count, and must match the
// classic sequential harness run of the derived per-shard seed exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/harness.hpp"
#include "psim/chaos.hpp"
#include "util/rng.hpp"

namespace rtpb::psim {
namespace {

chaos::ChaosOptions fast_options(std::size_t shards) {
  chaos::ChaosOptions opts;
  opts.duration = seconds(6);
  opts.objects = 3;
  opts.shards = shards;
  return opts;
}

std::vector<std::uint64_t> shard_digests(const ParallelSeedReport& report) {
  std::vector<std::uint64_t> out;
  for (const chaos::SeedReport& r : report.shard_reports) out.push_back(r.trace_digest);
  return out;
}

TEST(ChaosParallelTest, DigestsAreThreadCountInvariant) {
  // threads == 1 is THE sequential build: the driver runs the identical
  // window schedule inline, spawning no std::thread at all.
  const chaos::ChaosOptions opts = fast_options(3);
  const ParallelSeedReport one = run_parallel_seed(11, opts, 1);
  const ParallelSeedReport two = run_parallel_seed(11, opts, 2);
  const ParallelSeedReport four = run_parallel_seed(11, opts, 4);
  ASSERT_EQ(one.shard_reports.size(), 3u);
  EXPECT_EQ(shard_digests(two), shard_digests(one));
  EXPECT_EQ(shard_digests(four), shard_digests(one));
  // The whole report agrees, not just the digests.
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(two.shard_reports[s].trace_events, one.shard_reports[s].trace_events);
    EXPECT_EQ(four.shard_reports[s].sim_events, one.shard_reports[s].sim_events);
    EXPECT_EQ(four.shard_reports[s].client_writes, one.shard_reports[s].client_writes);
    EXPECT_EQ(four.shard_reports[s].fired, one.shard_reports[s].fired);
  }
  // Frontier exchange is part of the deterministic schedule too.
  EXPECT_EQ(two.frontier_records_published, one.frontier_records_published);
  EXPECT_EQ(four.frontier_records_ingested, one.frontier_records_ingested);
}

TEST(ChaosParallelTest, RerunAtSameThreadCountIsStable) {
  const chaos::ChaosOptions opts = fast_options(2);
  const ParallelSeedReport a = run_parallel_seed(5, opts, 2);
  const ParallelSeedReport b = run_parallel_seed(5, opts, 2);
  EXPECT_EQ(shard_digests(a), shard_digests(b));
  EXPECT_EQ(a.frontier_records_ingested, b.frontier_records_ingested);
}

TEST(ChaosParallelTest, PerShardDigestMatchesClassicHarness) {
  // The strongest purity statement: shard s of a parallel run IS a
  // classic chaos experiment of the derived seed — window chopping,
  // barrier exchange and frontier ingestion leave the trace untouched.
  const chaos::ChaosOptions opts = fast_options(2);
  const ParallelSeedReport parallel = run_parallel_seed(21, opts, 2);

  chaos::ChaosOptions classic = opts;
  classic.shards = 1;  // per-shard runs force shards=1 internally
  for (std::size_t s = 0; s < parallel.shard_reports.size(); ++s) {
    const chaos::SeedReport& r = parallel.shard_reports[s];
    const chaos::SeedReport reference = chaos::run_seed(r.seed, classic);
    EXPECT_EQ(r.trace_digest, reference.trace_digest) << "shard " << s;
    EXPECT_EQ(r.trace_events, reference.trace_events);
    EXPECT_EQ(r.sim_events, reference.sim_events);
    EXPECT_EQ(r.violation_count, reference.violation_count);
  }
}

TEST(ChaosParallelTest, PerShardDigestMatchesClassicHarnessUnderCrashRestart) {
  // A crash-restart arc needs durable replicas: a shard must build them
  // exactly as the classic harness does, or its crashed replica never
  // powers up again and the shard diverges from its classic replay.
  chaos::ChaosOptions opts = fast_options(2);
  opts.enable_crash_restart = true;
  opts.duration = seconds(12);  // the schedule draws a crash-restart arc from 12 s on
  const ParallelSeedReport parallel = run_parallel_seed(21, opts, 2);

  chaos::ChaosOptions classic = opts;
  classic.shards = 1;
  bool restarted = false;
  for (std::size_t s = 0; s < parallel.shard_reports.size(); ++s) {
    const chaos::SeedReport& r = parallel.shard_reports[s];
    const chaos::SeedReport reference = chaos::run_seed(r.seed, classic);
    EXPECT_EQ(r.trace_digest, reference.trace_digest) << "shard " << s;
    EXPECT_EQ(r.trace_events, reference.trace_events);
    EXPECT_EQ(r.violation_count, reference.violation_count);
    for (const std::string& action : r.fired) {
      if (action.rfind("restart-", 0) == 0) restarted = true;
    }
  }
  EXPECT_TRUE(restarted) << "no shard reached a restart";
}

TEST(ChaosParallelTest, ShardSeedsAreStreamDerived) {
  const chaos::ChaosOptions opts = fast_options(2);
  const ParallelSeedReport report = run_parallel_seed(33, opts, 1);
  const std::uint64_t root = derive_stream_seed(33, chaos::kStreamParallel);
  for (std::uint32_t s = 0; s < report.shard_reports.size(); ++s) {
    EXPECT_EQ(report.shard_reports[s].seed, derive_stream_seed(root, s));
  }
  EXPECT_NE(report.shard_reports[0].trace_digest, report.shard_reports[1].trace_digest);
}

TEST(ChaosParallelTest, FrontierRecordsActuallyCross) {
  chaos::ChaosOptions opts = fast_options(3);
  opts.enable_crashes = false;  // keep every backup applying
  const ParallelSeedReport report = run_parallel_seed(2, opts, 3);
  EXPECT_GT(report.frontier_records_published, 0u);
  EXPECT_GT(report.frontier_records_ingested, 0u);
  // Fan-out bound: each publish is read once by each of the (shards-1)
  // peers from the publish board, except a last-window publish, which no
  // peer reads before the run ends.
  EXPECT_LE(report.frontier_records_ingested, report.frontier_records_published * 2);
}

TEST(ChaosParallelTest, ThreadCountAboveShardsClampsAndAgrees) {
  const chaos::ChaosOptions opts = fast_options(2);
  const ParallelSeedReport base = run_parallel_seed(8, opts, 2);
  const ParallelSeedReport over = run_parallel_seed(8, opts, 16);
  EXPECT_EQ(over.driver.threads, 2u);
  EXPECT_EQ(shard_digests(over), shard_digests(base));
}

}  // namespace
}  // namespace rtpb::psim
