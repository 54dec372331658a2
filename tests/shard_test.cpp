// Sharded scale-out layer: directory placement, frontier tracking,
// per-shard admission with cross-shard constraint decomposition — and the
// digest-purity regression that pins shards=1 chaos runs to the exact
// pre-sharding trace digests.  The live multi-group exchange is covered by
// the PartitionedCluster tests in psim_test.cpp.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "chaos/harness.hpp"
#include "shard/admission.hpp"
#include "shard/directory.hpp"
#include "shard/frontier.hpp"

namespace rtpb::shard {
namespace {

core::ObjectSpec spec(core::ObjectId id, Duration p = millis(10),
                      Duration delta_p = millis(20), Duration delta_b = millis(100)) {
  core::ObjectSpec s;
  s.id = id;
  s.name = "obj" + std::to_string(id);
  s.client_period = p;
  s.client_exec = micros(200);
  s.update_exec = micros(200);
  s.delta_primary = delta_p;
  s.delta_backup = delta_b;
  return s;
}

/// First `n` object ids (from 1) landing on each shard of `directory`.
std::map<ShardId, std::vector<core::ObjectId>> ids_by_shard(const ShardDirectory& directory,
                                                            std::size_t n_per_shard) {
  std::map<ShardId, std::vector<core::ObjectId>> by_shard;
  for (core::ObjectId id = 1; id < 100000; ++id) {
    auto& ids = by_shard[directory.shard_of(id)];
    if (ids.size() < n_per_shard) ids.push_back(id);
    bool done = by_shard.size() == directory.shard_count();
    for (const auto& [s, v] : by_shard) done = done && v.size() == n_per_shard;
    if (done) break;
  }
  return by_shard;
}

// ---- directory -----------------------------------------------------------

TEST(ShardDirectory, PlacementIsDeterministicAndSeedFree) {
  const ShardDirectory a(16, 4);
  const ShardDirectory b(16, 4);
  for (core::ObjectId id = 1; id <= 5000; ++id) {
    const ShardId s = a.shard_of(id);
    EXPECT_LT(s, 16u);
    // Same id, same shard — in a second directory instance too (no seed,
    // no registration-order dependence).
    EXPECT_EQ(s, b.shard_of(id));
  }
}

TEST(ShardDirectory, PlacementCoversAllShards) {
  const ShardDirectory directory(64, 1);
  std::vector<std::size_t> hits(64, 0);
  for (core::ObjectId id = 1; id <= 10000; ++id) ++hits[directory.shard_of(id)];
  for (ShardId s = 0; s < 64; ++s) {
    EXPECT_GT(hits[s], 0u) << "shard " << s << " never hit by 10k sequential ids";
  }
}

TEST(ShardDirectory, InitialMappingStripesRoundRobin) {
  const ShardDirectory directory(8, 3);
  for (ShardId s = 0; s < 8; ++s) EXPECT_EQ(directory.group_of_shard(s), s % 3);
}

TEST(ShardDirectory, RemapMovesOneShardAndOnlyThatShard) {
  ShardDirectory directory(8, 2);
  std::vector<GroupId> before;
  before.reserve(8);
  for (ShardId s = 0; s < 8; ++s) before.push_back(directory.group_of_shard(s));

  ASSERT_EQ(before[3], 1u);  // 3 % 2: moving it to group 0 is a real move
  directory.remap_shard(3, 1);  // already there: a no-op, not a remap
  EXPECT_EQ(directory.remap_count(), 0u);
  directory.remap_shard(3, 0);
  EXPECT_EQ(directory.group_of_shard(3), 0u);
  EXPECT_EQ(directory.remap_count(), 1u);
  for (ShardId s = 0; s < 8; ++s) {
    if (s == 3) continue;
    EXPECT_EQ(directory.group_of_shard(s), before[s]) << "remap leaked to shard " << s;
  }
  // Objects follow their shard — and only their shard.
  for (core::ObjectId id = 1; id <= 1000; ++id) {
    const ShardId s = directory.shard_of(id);
    EXPECT_EQ(directory.group_of(id), s == 3 ? 0u : before[s]);
  }
}

// ---- frontier tracker ----------------------------------------------------

TEST(FrontierTracker, EmptyShardConstrainsNothing) {
  const FrontierTracker t;
  EXPECT_EQ(t.frontier(), TimePoint::max());
}

TEST(FrontierTracker, FrontierIsTheMinimumAndAdvancesMonotonically) {
  FrontierTracker t;
  t.track(1, TimePoint{100});
  t.track(2, TimePoint{50});
  t.track(3, TimePoint{200});
  EXPECT_EQ(t.frontier(), TimePoint{50});

  t.advance(2, TimePoint{150});  // the argmin moves: rescan finds object 1
  EXPECT_EQ(t.frontier(), TimePoint{100});

  t.advance(1, TimePoint{40});  // regressions are ignored
  EXPECT_EQ(t.frontier(), TimePoint{100});

  t.advance(99, TimePoint{1});  // unknown ids are ignored
  EXPECT_EQ(t.frontier(), TimePoint{100});
}

TEST(FrontierTracker, ForgetRecyclesSlotsAndRecomputes) {
  FrontierTracker t;
  t.track(1, TimePoint{10});
  t.track(2, TimePoint{20});
  t.forget(1);  // the argmin dies
  EXPECT_EQ(t.frontier(), TimePoint{20});
  EXPECT_EQ(t.size(), 1u);

  t.track(3, TimePoint{5});  // reuses object 1's slot
  EXPECT_EQ(t.frontier(), TimePoint{5});
  t.forget(2);
  t.forget(3);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.frontier(), TimePoint::max());
}

TEST(FrontierTracker, DuplicateTrackKeepsTheOriginal) {
  FrontierTracker t;
  t.track(1, TimePoint{10});
  t.track(1, TimePoint{99});
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.frontier(), TimePoint{10});
}

// ---- sharded admission ---------------------------------------------------

TEST(ShardedAdmission, RoutesRegistrationsToTheHomeShard) {
  const ShardDirectory directory(4, 1);
  ShardedAdmission admission(directory, core::ServiceConfig{}, millis(2));
  const auto by_shard = ids_by_shard(directory, 2);
  ASSERT_EQ(by_shard.size(), 4u);

  std::size_t total = 0;
  for (const auto& [s, ids] : by_shard) {
    for (core::ObjectId id : ids) {
      ASSERT_TRUE(admission.admit(spec(id)).ok());
      ++total;
    }
  }
  EXPECT_EQ(admission.admitted_count(), total);
  for (const auto& [s, ids] : by_shard) {
    EXPECT_EQ(admission.admitted_in_shard(s), ids.size());
  }
}

TEST(ShardedAdmission, CrossShardConstraintCapsBothSides) {
  const ShardDirectory directory(4, 1);
  ShardedAdmission admission(directory, core::ServiceConfig{}, millis(2));
  const auto by_shard = ids_by_shard(directory, 1);
  const core::ObjectId i = by_shard.at(0).front();
  const core::ObjectId j = by_shard.at(1).front();
  ASSERT_TRUE(admission.admit(spec(i)).ok());
  ASSERT_TRUE(admission.admit(spec(j)).ok());
  EXPECT_EQ(admission.update_period(i), millis(39));  // window-derived baseline

  ASSERT_TRUE(admission.add_constraint({i, j, millis(15)}).ok());
  EXPECT_LE(admission.update_period(i), millis(15));
  EXPECT_LE(admission.update_period(j), millis(15));
  ASSERT_EQ(admission.cross_constraints().size(), 1u);

  // Removing one member withdraws the constraint on BOTH home shards.
  admission.remove(i);
  EXPECT_TRUE(admission.cross_constraints().empty());
  EXPECT_EQ(admission.update_period(j), millis(39));
}

TEST(ShardedAdmission, RejectedCrossShardConstraintLeavesNoResidue) {
  const ShardDirectory directory(4, 1);
  ShardedAdmission admission(directory, core::ServiceConfig{}, millis(2));
  const auto by_shard = ids_by_shard(directory, 1);
  const core::ObjectId i = by_shard.at(0).front();
  const core::ObjectId ghost = by_shard.at(1).front();  // never admitted
  ASSERT_TRUE(admission.admit(spec(i)).ok());

  // Side A's cap commits, side B's is rejected (unknown object): the
  // rollback must restore side A's period and record nothing.
  EXPECT_FALSE(admission.add_constraint({i, ghost, millis(15)}).ok());
  EXPECT_EQ(admission.update_period(i), millis(39));
  EXPECT_TRUE(admission.cross_constraints().empty());
  EXPECT_TRUE(admission.shard(directory.shard_of(i)).constraints().empty());
}

TEST(ShardedAdmission, ExplicitRemoveConstraintRestoresBothSides) {
  const ShardDirectory directory(4, 1);
  ShardedAdmission admission(directory, core::ServiceConfig{}, millis(2));
  const auto by_shard = ids_by_shard(directory, 1);
  const core::ObjectId i = by_shard.at(0).front();
  const core::ObjectId j = by_shard.at(2).front();
  ASSERT_TRUE(admission.admit(spec(i)).ok());
  ASSERT_TRUE(admission.admit(spec(j)).ok());
  ASSERT_TRUE(admission.add_constraint({i, j, millis(15)}).ok());

  admission.remove_constraint({i, j, millis(15)});
  EXPECT_TRUE(admission.cross_constraints().empty());
  EXPECT_EQ(admission.update_period(i), millis(39));
  EXPECT_EQ(admission.update_period(j), millis(39));
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
}  // namespace rtpb::shard
