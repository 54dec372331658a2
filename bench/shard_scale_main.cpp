// shard_scale — the sharded scale-out baseline recorder.
//
// Measures the three costs the shard layer exists to bound and writes the
// flat BENCH_shard.json that tools/bench_report gates future PRs against:
//
//   1. directory + per-shard admission at scale: 1,000,000 registrations
//      across 64 shards, timed per decile.  The last decile must not cost
//      more than 3x the first (the running-aggregate admission check is
//      amortised O(1); only the std::map inserts grow, logarithmically),
//      and allocations per registration are recorded.
//   2. frontier maintenance: steady-state FrontierTracker::advance() over
//      a large tracked set must be allocation-free (asserted == 0) and
//      O(1) — the cached-argmin slot design.
//   3. a live frontier exchange: a 4-group psim::PartitionedCluster run
//      sequentially (threads=1) publishes and ingests frontier records at
//      its window barriers, and every group ends up observing every remote
//      group's frontier.  These counts are seed-pure ("_deterministic").
//
// This binary links bench/common/alloc_hook.cpp, which REPLACES the global
// operator new/delete — that is why it is excluded from the *_main.cpp
// glob (see bench/CMakeLists.txt).
//
// Usage: shard_scale [output.json]   (default BENCH_shard.json)
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/alloc_hook.hpp"
#include "common/harness.hpp"
#include "psim/partitioned.hpp"
#include "shard/admission.hpp"
#include "shard/directory.hpp"
#include "shard/frontier.hpp"

namespace {

using namespace rtpb;
using bench::alloc_hook::Scope;

volatile std::int64_t g_sink = 0;  // defeats dead-code elimination

double now_ns() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

/// A registration light enough that 1M of them fit the per-shard RM bound:
/// ~1e-5 utilisation each, so 1M/64 ≈ 15.6k objects per shard sum to ~0.16.
core::ObjectSpec light_spec(core::ObjectId id) {
  core::ObjectSpec spec;
  spec.id = id;
  spec.client_period = millis(100);
  spec.client_exec = micros(1);
  spec.update_exec = micros(1);
  spec.size_bytes = 64;
  spec.delta_primary = millis(200);
  spec.delta_backup = spec.delta_primary + seconds(10);
  return spec;
}

void registration_scale(bench::JsonMetrics& out) {
  constexpr std::size_t kObjects = 1'000'000;
  constexpr shard::ShardId kShards = 64;
  constexpr std::size_t kDecile = kObjects / 10;

  std::printf("-- 1M registrations across %u shards --\n", kShards);
  const shard::ShardDirectory directory(kShards, 1);
  shard::ShardedAdmission admission(directory, core::ServiceConfig{}, millis(2));

  double decile_ns[10] = {};
  Scope scope;
  for (std::size_t d = 0; d < 10; ++d) {
    const double t0 = now_ns();
    for (std::size_t i = 0; i < kDecile; ++i) {
      const auto id = static_cast<core::ObjectId>(d * kDecile + i + 1);
      if (admission.admit(light_spec(id)).ok()) g_sink = g_sink + 1;
    }
    decile_ns[d] = (now_ns() - t0) / static_cast<double>(kDecile);
  }
  const double allocs_per_reg =
      static_cast<double>(scope.allocations()) / static_cast<double>(kObjects);

  const std::size_t admitted = admission.admitted_count();
  const double ratio = decile_ns[9] / decile_ns[0];
  std::printf("  admitted %zu/%zu  first decile %.0f ns/reg  last %.0f ns/reg  "
              "ratio %.2f  allocs/reg %.2f\n",
              admitted, kObjects, decile_ns[0], decile_ns[9], ratio, allocs_per_reg);
  if (admitted != kObjects) {
    std::fprintf(stderr, "FAIL: only %zu of %zu light registrations admitted\n", admitted,
                 kObjects);
    std::exit(1);
  }
  if (ratio > 3.0) {
    std::fprintf(stderr,
                 "FAIL: last registration decile cost %.2fx the first (want <= 3x: "
                 "the admission check is amortised O(1), only map inserts may grow)\n",
                 ratio);
    std::exit(1);
  }

  out.add("reg_admitted", static_cast<double>(admitted));
  out.add("reg_first_decile_ns", decile_ns[0]);
  out.add("reg_last_decile_ns", decile_ns[9]);
  out.add("reg_decile_ratio", ratio);
  out.add("reg_allocs_per_registration", allocs_per_reg);
}

void frontier_scale(bench::JsonMetrics& out) {
  constexpr std::size_t kTracked = 100'000;
  constexpr std::size_t kAdvances = 1'000'000;

  std::printf("-- frontier advance over %zu tracked objects --\n", kTracked);
  shard::FrontierTracker tracker;
  for (std::size_t i = 0; i < kTracked; ++i) {
    tracker.track(static_cast<core::ObjectId>(i + 1), TimePoint::zero());
  }
  // Warm one full round so the lazily cached argmin is established.
  for (std::size_t i = 0; i < kTracked; ++i) {
    tracker.advance(static_cast<core::ObjectId>(i + 1), TimePoint{1});
  }

  Scope scope;
  const double t0 = now_ns();
  std::int64_t stamp = 2;
  for (std::size_t i = 0; i < kAdvances; ++i) {
    const auto id = static_cast<core::ObjectId>(i % kTracked + 1);
    tracker.advance(id, TimePoint{stamp});
    if (id == kTracked) {  // one frontier query per completed round
      g_sink = g_sink + tracker.frontier().nanos();
      ++stamp;
    }
  }
  const double per = (now_ns() - t0) / static_cast<double>(kAdvances);
  const auto allocs = static_cast<double>(scope.allocations());
  std::printf("  %.1f ns/advance  %.0f allocations total\n", per, allocs);
  if (allocs > 0) {
    std::fprintf(stderr,
                 "FAIL: steady-state frontier advance allocated %.0f times "
                 "(the slot vector must make it allocation-free)\n",
                 allocs);
    std::exit(1);
  }

  out.add("frontier_advance_ns", per);
  out.add("frontier_advance_allocs", allocs);
}

void cluster_exchange(bench::JsonMetrics& out) {
  std::printf("-- live cluster frontier exchange --\n");
  psim::PartitionedClusterParams params;
  params.seed = 1;
  params.group_count = 4;
  psim::PartitionedCluster cluster(params);
  cluster.start();
  for (core::ObjectId id = 1; id <= 8; ++id) {
    if (!cluster.register_object(light_spec(id)).ok()) {
      std::fprintf(stderr, "FAIL: cluster rejected light object %u\n", id);
      std::exit(1);
    }
  }
  (void)cluster.run_for(seconds(1), 1);

  const auto published = static_cast<double>(cluster.frontier_records_published());
  const auto ingested = static_cast<double>(cluster.frontier_records_ingested());
  std::size_t observed = 0;
  for (std::uint32_t g = 0; g < cluster.group_count(); ++g) {
    for (std::uint32_t s = 0; s < cluster.group_count(); ++s) {
      if (s == g) continue;
      if (cluster.service(g).acting_primary().peer_frontier(s) > TimePoint::zero()) ++observed;
    }
  }
  std::printf("  frontier records: %.0f published, %.0f ingested; %zu remote frontiers observed\n",
              published, ingested, observed);
  const std::size_t pairs = std::size_t{cluster.group_count()} * (cluster.group_count() - 1);
  if (ingested == 0 || observed != pairs) {
    std::fprintf(stderr, "FAIL: only %zu of %zu remote frontiers observed\n", observed, pairs);
    std::exit(1);
  }

  out.add("cluster_frontier_records_published_deterministic", published);
  out.add("cluster_frontier_records_ingested_deterministic", ingested);
  out.add("cluster_remote_frontiers_observed_deterministic", static_cast<double>(observed));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_shard.json";
  bench::banner("shard scale-out",
                "1M-object directory admits at flat per-registration cost; "
                "frontier upkeep is allocation-free; frontier records flow");

  bench::JsonMetrics out("shard");
  registration_scale(out);
  frontier_scale(out);
  cluster_exchange(out);
  out.write(out_path);
  return 0;
}
