// Sharded scale-out: hash placement (core::shard_of) and the
// digest-purity regression that pins shards=1 chaos runs to the exact
// pre-sharding trace digests.  The live multi-group exchange, frontier and
// cross-group admission are covered by the PartitionedCluster tests in
// psim_test.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/harness.hpp"
#include "core/types.hpp"

namespace rtpb {
namespace {

// ---- placement -----------------------------------------------------------

TEST(ShardDirectory, PlacementIsDeterministicAndSeedFree) {
  // The expected shards are pinned: no seed, process or registration order
  // can move an id.
  constexpr std::uint32_t kPinned[8] = {4, 7, 6, 1, 0, 3, 2, 13};
  for (core::ObjectId id = 1; id <= 8; ++id) EXPECT_EQ(core::shard_of(id, 16), kPinned[id - 1]);
  for (core::ObjectId id = 1; id <= 5000; ++id) EXPECT_LT(core::shard_of(id, 16), 16u);
}

TEST(ShardDirectory, PlacementCoversAllShards) {
  std::vector<std::size_t> hits(64, 0);
  for (core::ObjectId id = 1; id <= 10000; ++id) ++hits[core::shard_of(id, 64)];
  for (std::uint32_t s = 0; s < 64; ++s) {
    EXPECT_GT(hits[s], 0u) << "shard " << s << " never hit by 10k sequential ids";
  }
}

// ---- chaos digest purity -------------------------------------------------

TEST(ShardChaosPurity, ShardsOneIsByteIdenticalToPreShardDigests) {
  // Pinned from the build immediately before the shard layer existed
  // (chaos_main --seeds 4 --duration-ms 8000).  shards == 1 must not
  // perturb a single byte: the shard fault stream is never drawn from and
  // no per-object overrides are installed.
  constexpr std::uint64_t kPinned[4] = {0x608a966c3aa6b74bULL, 0xe3e9a0e22dd1ae33ULL,
                                        0xf3f1273e3b6fb71dULL, 0x0a356727dde672b9ULL};
  chaos::ChaosOptions opts;
  opts.duration = seconds(8);
  ASSERT_EQ(opts.shards, 1u);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const chaos::SeedReport report = chaos::run_seed(seed, opts);
    EXPECT_EQ(report.trace_digest, kPinned[seed]) << "seed " << seed;
    EXPECT_EQ(report.violation_count, 0u) << "seed " << seed;
  }
}

TEST(ShardChaosPurity, ShardedRunsAreDeterministicAndActuallySharded) {
  chaos::ChaosOptions opts;
  opts.duration = seconds(8);
  opts.shards = 4;
  const chaos::SeedReport a = chaos::run_seed(0, opts);
  const chaos::SeedReport b = chaos::run_seed(0, opts);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.fired, b.fired);
  EXPECT_EQ(a.updates_applied, b.updates_applied);

  // The schedule really carries shard-scoped storms for this seed.
  bool shard_fault_fired = false;
  for (const std::string& label : a.fired) {
    if (label.find("shard-loss-storm") != std::string::npos) shard_fault_fired = true;
  }
  EXPECT_TRUE(shard_fault_fired);
}

}  // namespace
}  // namespace rtpb
