// The chaos harness proper: run one seed through a full RtpbService with a
// generated fault schedule, continuously checked by the invariant oracles,
// and report a bit-reproducible trace digest.
//
// FoundationDB-style deterministic simulation testing: the seed is the
// whole experiment.  A failing seed prints a ready-to-paste FaultPlan
// reproducer; re-running the seed replays the identical trajectory, byte
// for byte, which the determinism regression test asserts via the digest.
#pragma once

#include <cstdint>

#include "chaos/experiment.hpp"

namespace rtpb::chaos {

/// Run a single chaos seed to completion: one Experiment with opts' own
/// observers.  Deterministic.
[[nodiscard]] SeedReport run_seed(std::uint64_t seed, const ChaosOptions& opts);

}  // namespace rtpb::chaos
