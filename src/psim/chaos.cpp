#include "psim/chaos.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "psim/partitioned.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rtpb::psim {

std::uint64_t ParallelSeedReport::violation_count() const {
  std::uint64_t n = 0;
  for (const chaos::SeedReport& r : shard_reports) n += r.violation_count;
  return n;
}

std::uint64_t ParallelSeedReport::oracle_checks() const {
  std::uint64_t n = 0;
  for (const chaos::SeedReport& r : shard_reports) n += r.oracle_checks;
  return n;
}

std::string ParallelSeedReport::summary() const {
  char line[224];
  std::snprintf(line, sizeof line,
                "parallel seed %6llu  %s  shards %zu  threads %zu  windows %llu  "
                "frontier %llu/%llu  violations %llu",
                static_cast<unsigned long long>(seed), ok() ? "ok  " : "FAIL", shards,
                threads, static_cast<unsigned long long>(driver.windows),
                static_cast<unsigned long long>(frontier_records_published),
                static_cast<unsigned long long>(frontier_records_ingested),
                static_cast<unsigned long long>(violation_count()));
  std::string out = line;
  for (std::size_t s = 0; s < shard_reports.size(); ++s) {
    const chaos::SeedReport& r = shard_reports[s];
    std::snprintf(line, sizeof line,
                  "\n  shard %2zu  seed %20llu  %s  digest %016llx  admitted %zu/%zu  "
                  "writes %llu  applied %llu  faults %zu  violations %llu",
                  s, static_cast<unsigned long long>(r.seed), r.ok() ? "ok  " : "FAIL",
                  static_cast<unsigned long long>(r.trace_digest), r.objects_admitted,
                  r.objects_offered, static_cast<unsigned long long>(r.client_writes),
                  static_cast<unsigned long long>(r.updates_applied), r.fired.size(),
                  static_cast<unsigned long long>(r.violation_count));
    out += line;
  }
  return out;
}

ParallelSeedReport run_parallel_seed(std::uint64_t seed, const chaos::ChaosOptions& opts,
                                     std::size_t threads) {
  RTPB_EXPECTS(opts.shards >= 1);
  // Each shard IS its own group here: shard-scoped storms are off, and a
  // shard attaches no observers.
  chaos::ChaosOptions sopts = opts;
  sopts.shards = 1;
  static_cast<chaos::Observers&>(sopts) = {};
  const std::uint64_t parallel_root = derive_stream_seed(seed, chaos::kStreamParallel);

  // ---- control plane: build every shard's experiment, single-threaded ----
  std::vector<std::unique_ptr<chaos::Experiment>> experiments;
  std::vector<std::unique_ptr<GroupPartition>> partitions;
  Duration window{};
  for (std::uint32_t s = 0; s < opts.shards; ++s) {
    chaos::Experiment& e = *experiments.emplace_back(
        std::make_unique<chaos::Experiment>(derive_stream_seed(parallel_root, s), sopts));
    auto part = std::make_unique<GroupPartition>(s, e.service());
    for (core::ObjectId id : e.admitted()) part->track(id);
    partitions.push_back(std::move(part));
    window = std::max(window, e.service().link_delay_bound());
  }
  GroupPartition::wire_mesh(partitions);
  RTPB_ASSERT(window > Duration::zero());

  // ---- parallel region: lock-stepped lookahead windows ----
  std::vector<PartitionTask*> tasks;
  tasks.reserve(partitions.size());
  for (auto& p : partitions) tasks.push_back(p.get());
  const TimePoint from = experiments.front()->service().simulator().now();
  ParallelDriver driver(std::move(tasks), window);

  ParallelSeedReport report;
  report.seed = seed;
  report.shards = opts.shards;
  report.threads = threads;
  report.driver = driver.run(from, from + opts.duration, threads);

  // ---- harvest, single-threaded again ----
  for (std::uint32_t s = 0; s < opts.shards; ++s) {
    experiments[s]->finish();
    chaos::SeedReport& r = report.shard_reports.emplace_back(experiments[s]->report());
    r.seed = derive_stream_seed(parallel_root, s);
    if (!r.ok()) {
      r.reproducer = chaos::render_reproducer(chaos::generate_schedule(r.seed, sopts), sopts);
    }
    report.frontier_records_published += partitions[s]->records_published();
    report.frontier_records_ingested += partitions[s]->records_ingested();
  }
  return report;
}

}  // namespace rtpb::psim
