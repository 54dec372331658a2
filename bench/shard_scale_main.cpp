// shard_scale — the sharded scale-out baseline recorder.
//
// Measures the three costs sharded scale-out must bound and writes the
// flat BENCH_shard.json that tools/bench_report gates future PRs against:
//
//   1. placement + per-shard admission at scale: 1,000,000 registrations
//      routed by core::shard_of into 64 core::AdmissionControllers, timed
//      per decile.  The last decile must not cost more than 3x the first
//      (the running-aggregate admission check is amortised O(1); only the
//      std::map inserts grow, logarithmically), and allocations per
//      registration are recorded.
//   2. a live frontier exchange: a 4-group psim::PartitionedCluster run
//      sequentially (threads=1) publishes and ingests frontier records at
//      its window barriers, and every group ends up observing every remote
//      group's frontier.  These counts are seed-pure ("_deterministic").
//   3. exchange allocations: an 8-group x 4-object cluster at threads=1,
//      its partitions wrapped in a decorator that counts allocations in
//      begin_window and end_window only (not advance_to).  After a warm-up
//      the frontier exchange, the frontier minimum included, must be
//      allocation-free (asserted == 0).
//
// This binary links bench/common/alloc_hook.cpp, which REPLACES the global
// operator new/delete — that is why it is excluded from the *_main.cpp
// glob (see bench/CMakeLists.txt).
//
// Usage: shard_scale [output.json]   (default BENCH_shard.json)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "common/alloc_hook.hpp"
#include "common/harness.hpp"
#include "core/admission.hpp"
#include "psim/driver.hpp"
#include "psim/partitioned.hpp"

namespace {

using namespace rtpb;
using bench::alloc_hook::Scope;

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
  constexpr std::uint32_t kShards = 64;
  constexpr std::size_t kDecile = kObjects / 10;

  std::printf("-- 1M registrations across %u shards --\n", kShards);
  std::vector<core::AdmissionController> shards;
  shards.reserve(kShards);
  for (std::uint32_t s = 0; s < kShards; ++s) shards.emplace_back(core::ServiceConfig{}, millis(2));

  double decile_ns[10] = {};
  std::size_t admitted = 0;
  Scope scope;
  for (std::size_t d = 0; d < 10; ++d) {
    const double t0 = now_ns();
    for (std::size_t i = 0; i < kDecile; ++i) {
      const auto id = static_cast<core::ObjectId>(d * kDecile + i + 1);
      if (shards[core::shard_of(id, kShards)].admit(light_spec(id)).ok()) ++admitted;
    }
    decile_ns[d] = (now_ns() - t0) / static_cast<double>(kDecile);
  }
  const double allocs_per_reg =
      static_cast<double>(scope.allocations()) / static_cast<double>(kObjects);

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

/// Forwards every hook to a partition and counts the allocations made in
/// its two exchange hooks: the drain at window begin and the publish at
/// window end.
class ExchangeAllocCounter final : public psim::PartitionTask {
 public:
  explicit ExchangeAllocCounter(psim::PartitionTask& inner) : inner_(inner) {}

  void begin_window(TimePoint start) override {
    const Scope scope;
    inner_.begin_window(start);
    allocations_ += scope.allocations();
  }
  void advance_to(TimePoint horizon) override { inner_.advance_to(horizon); }
  void end_window(TimePoint horizon) override {
    const Scope scope;
    inner_.end_window(horizon);
    allocations_ += scope.allocations();
  }

  [[nodiscard]] std::uint64_t allocations() const { return allocations_; }

 private:
  psim::PartitionTask& inner_;
  std::uint64_t allocations_ = 0;
};

void exchange_allocs(bench::JsonMetrics& out) {
  constexpr std::uint32_t kGroups = 8;
  constexpr int kObjectsPerGroup = 4;

  std::printf("-- psim frontier exchange allocations, %u groups x %d objects --\n", kGroups,
              kObjectsPerGroup);
  psim::PartitionedClusterParams params;
  params.seed = 1;
  params.group_count = kGroups;
  psim::PartitionedCluster cluster(params);
  cluster.start();
  core::ObjectId next = 1;
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    for (int i = 0; i < kObjectsPerGroup; ++i) {
      core::ObjectSpec spec = light_spec(next++);
      // A ~50 ms update period keeps frontiers advancing every few windows.
      spec.delta_backup = spec.delta_primary + millis(100);
      if (!cluster.register_object_in(g, spec).ok()) {
        std::fprintf(stderr, "FAIL: group %u rejected light object %u\n", g, spec.id);
        std::exit(1);
      }
    }
  }
  // Warm-up: every primary learns every peer before counting starts.
  (void)cluster.run_for(seconds(1), 1);

  std::vector<ExchangeAllocCounter> counters;
  counters.reserve(kGroups);
  std::vector<psim::PartitionTask*> tasks;
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    counters.emplace_back(cluster.partition(g));
    tasks.push_back(&counters.back());
  }
  const std::uint64_t published0 = cluster.frontier_records_published();
  const std::uint64_t ingested0 = cluster.frontier_records_ingested();
  psim::ParallelDriver driver(std::move(tasks), cluster.window());
  const psim::DriverStats stats = driver.run(cluster.now(), cluster.now() + seconds(2), 1);
  std::uint64_t allocs = 0;
  for (const ExchangeAllocCounter& c : counters) allocs += c.allocations();
  const std::uint64_t published = cluster.frontier_records_published() - published0;
  const std::uint64_t ingested = cluster.frontier_records_ingested() - ingested0;
  const double per_window = static_cast<double>(allocs) / static_cast<double>(stats.windows);
  std::printf("  %llu windows, %llu published, %llu ingested: %.2f allocations/window\n",
              static_cast<unsigned long long>(stats.windows),
              static_cast<unsigned long long>(published),
              static_cast<unsigned long long>(ingested), per_window);
  if (ingested == 0) {
    std::fprintf(stderr, "FAIL: no frontier record crossed while allocations were counted\n");
    std::exit(1);
  }
  if (allocs > 0) {
    std::fprintf(stderr,
                 "FAIL: the frontier exchange allocated %.2f times per window "
                 "(window begin and end must be allocation-free)\n",
                 per_window);
    std::exit(1);
  }

  out.add("psim_exchange_allocs_per_window", per_window);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_shard.json";
  bench::banner("shard scale-out",
                "1M objects admit at flat per-registration cost across hash-placed shards; "
                "the frontier exchange is allocation-free; frontier records flow");

  bench::JsonMetrics out("shard");
  registration_scale(out);
  cluster_exchange(out);
  exchange_allocs(out);
  out.write(out_path);
  return 0;
}
