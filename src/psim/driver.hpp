// ParallelDriver — conservative parallel discrete-event execution over
// shard partitions (ROADMAP item 2a).
//
// RTPB's admission-frozen link delay bound ℓ is exactly the conservative
// lookahead a parallel DES needs: no partition can affect another sooner
// than ℓ, so every partition may advance independently inside a window of
// width ℓ.  The driver runs all partitions through lock-stepped windows
//
//   [W_k, W_{k+1}]   with   W_{k+1} = W_k + ℓ
//
// on a fixed worker pool.  Each window runs as TWO barrier-separated
// phases.  Phase 1: every worker, for every partition it owns, drains
// what that partition's peers published in a FIXED source order and
// advances the partition's simulator to the window horizon.  Phase 2
// (after a barrier): every worker publishes its partitions' outbound
// records into their own single-writer slots; a second barrier then
// opens the next window.  The first barrier keeps a publish of window k
// from racing a peer's drain of window k; the second orders all publishes
// of window k before all drains of window k+1.  A record published at
// the end of window k is therefore visible to (and only to) the
// consumer's begin-phase of window k+1: cross-partition latency lands in
// [ℓ, 2ℓ], which the ℓ-lookahead makes safe by construction.
//
// Determinism: partition assignment never moves a partition between
// threads mid-run, each partition's simulator is touched by exactly one
// thread per window, and the drain order at every window start is a pure
// function of (partition, window).  Each (partition, seed) stream is
// therefore bit-reproducible at ANY thread count — the per-shard digest
// equality the chaos harness asserts.
#pragma once

#include <cstdint>
#include <vector>

#include "util/time.hpp"

namespace rtpb::psim {

/// One shard partition as the driver sees it.  All three hooks are called
/// from the worker thread that owns the partition.  end_window() may
/// write only state this partition alone writes; begin_window() may read
/// what other partitions wrote in the previous window's end phase.
class PartitionTask {
 public:
  virtual ~PartitionTask() = default;

  /// Window begin: drain what peers published last window (fixed source
  /// order) and schedule/apply it.  The partition's clock is exactly
  /// `start`.
  virtual void begin_window(TimePoint start) = 0;
  /// Run every local event with timestamp <= horizon.
  virtual void advance_to(TimePoint horizon) = 0;
  /// Window end: publish outbound records for peers to drain next window.
  /// The partition's clock is exactly `horizon`.
  virtual void end_window(TimePoint horizon) = 0;
};

struct DriverStats {
  std::uint64_t windows = 0;      ///< lookahead windows executed
  std::uint64_t barriers = 0;     ///< barrier episodes: 2/window (0 when threads == 1)
  std::size_t threads = 0;        ///< worker threads actually used
  double wall_ms = 0.0;           ///< real time spent inside run()
};

class ParallelDriver {
 public:
  /// `window` is the lookahead ℓ (must be positive).  Tasks are not
  /// owned and must outlive the driver.
  ParallelDriver(std::vector<PartitionTask*> tasks, Duration window);

  ParallelDriver(const ParallelDriver&) = delete;
  ParallelDriver& operator=(const ParallelDriver&) = delete;

  /// Advance every partition from `from` to `to` in lock-stepped windows
  /// of the configured width (the last window clamps to `to`), using
  /// `threads` workers.  threads == 1 runs the identical schedule inline
  /// on the calling thread — THE sequential build, no std::thread spawned
  /// — which is the reference the digest-equality oracle compares
  /// against.  Thread counts above the partition count are clamped.
  DriverStats run(TimePoint from, TimePoint to, std::size_t threads);

 private:
  std::vector<PartitionTask*> tasks_;
  Duration window_;
};

}  // namespace rtpb::psim
