// Parallel chaos harness: one chaos experiment PER SHARD, all advanced by
// the conservative parallel driver, coupled only through window-barrier
// frontier records.
//
// Seed discipline: shard s of parallel seed S is a chaos::Experiment of
// the derived seed  derive_stream_seed(derive_stream_seed(S, kStreamParallel), s)
// under the classic options with shards forced to 1 — the same
// constructor chaos::run_seed uses, so the shard's schedule, workload,
// fault plan, oracles and trace digest are those of a classic run of that
// seed by construction.  The derivation is stateless, so shard s's whole
// trajectory is a pure function of (S, s, opts), independent of the shard
// count AND of the thread count.  The purity oracle asserts exactly this:
// running the same (S, opts) at threads ∈ {1, 2, 4} must reproduce every
// per-shard digest bit for bit, where threads == 1 is the inline
// sequential build (no std::thread spawned).
//
// Shards attach no observers (telemetry export files, health feeds,
// post-mortem paths): the per-sim hubs themselves are thread-confined, but
// the file paths in ChaosOptions are single-run names that N shards would
// trample.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/harness.hpp"
#include "psim/driver.hpp"

namespace rtpb::psim {

struct ParallelSeedReport {
  std::uint64_t seed = 0;
  std::size_t shards = 0;
  std::size_t threads = 0;  ///< as requested (driver may clamp)
  DriverStats driver;
  /// One classic report per shard, indexed by shard; each report's seed
  /// is the shard seed (replay it with chaos::run_seed).
  std::vector<chaos::SeedReport> shard_reports;
  std::uint64_t frontier_records_published = 0;
  std::uint64_t frontier_records_ingested = 0;

  [[nodiscard]] bool ok() const { return violation_count() == 0; }
  [[nodiscard]] std::uint64_t violation_count() const;
  [[nodiscard]] std::uint64_t oracle_checks() const;
  /// One line per shard plus a driver line, for sweep output.
  [[nodiscard]] std::string summary() const;
};

/// Run one parallel chaos seed: opts.shards independent experiments in
/// lock-stepped lookahead windows on `threads` workers.  Deterministic at
/// any thread count.  Requires opts.shards >= 1; opts.shards inside each
/// per-shard run is forced to 1 (shard-scoped storms don't compose with
/// one-group-per-shard partitioning).
[[nodiscard]] ParallelSeedReport run_parallel_seed(std::uint64_t seed,
                                                   const chaos::ChaosOptions& opts,
                                                   std::size_t threads);

}  // namespace rtpb::psim
