// The chaos harness proper: run one seed (or a sweep of seeds) through a
// full RtpbService with a generated fault schedule, continuously checked
// by the invariant oracles, and report a bit-reproducible trace digest.
//
// FoundationDB-style deterministic simulation testing: the seed is the
// whole experiment.  A failing seed prints a ready-to-paste FaultPlan
// reproducer; re-running the seed replays the identical trajectory, byte
// for byte, which the determinism regression test asserts via the digest.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "chaos/experiment.hpp"

namespace rtpb::chaos {

/// Run a single chaos seed to completion: one Experiment with opts' own
/// observers.  Deterministic.
[[nodiscard]] SeedReport run_seed(std::uint64_t seed, const ChaosOptions& opts);

struct SweepResult {
  std::size_t seeds_run = 0;
  std::vector<SeedReport> failures;  ///< reports of seeds with violations
  std::uint64_t total_checks = 0;
  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Run seeds [first_seed, first_seed + count).  If `progress` is non-null,
/// prints one line per seed and a reproducer for every failure.
[[nodiscard]] SweepResult run_sweep(std::uint64_t first_seed, std::size_t count,
                                    const ChaosOptions& opts,
                                    std::ostream* progress = nullptr);

}  // namespace rtpb::chaos
