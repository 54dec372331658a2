// Shared types of the repository benchmark (perfbench).
//
// A workload is one fixed set of inputs driven through the library's public
// API.  Each run of the binary repeats the workload's unit of work — its
// set-up followed by its measured phase — and reports medians over the
// repetitions, so one slow repetition does not move a result.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Ordered name → value map (metrics, pinned statistics).
using Values = std::map<std::string, double>;

/// Number of distinct input sets.  A run's inputs are input set
/// `seed mod kInputSets`, so every input a run can draw has pinned outputs.
inline constexpr std::uint64_t kInputSets = 16;

struct Options {
  std::string workload;
  std::uint64_t input = 0;  ///< input set index, < kInputSets
  double seconds = 10.0;    ///< measuring time of one run
  bool trace = false;       ///< per-layer run instead of end-to-end run
  bool tiny = false;        ///< self-test size: every unit of work shrunk
  int reps = 0;             ///< fixed repetition count (0 = fill `seconds`)
  /// chaos_observed: chaos seeds recorded as failing today.  They are kept
  /// out of the measured set and replayed after it instead.
  std::vector<std::uint64_t> known_failures;
};

/// One repetition of a workload.
struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t updates = 0;  ///< denominator of the per-update metrics
  std::uint64_t allocs = 0;   ///< heap allocations during the measured phase
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;  ///< one named entry per failed check
  Values stats;  ///< deterministic simulated statistics, compared to the pins
  Values layer;  ///< per-layer counters and virtual-time quality metrics
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Set up and run one repetition.  `traced` advances the simulation in
  /// fixed virtual slices to sample per-layer state between them.
  [[nodiscard]] virtual Rep run(bool traced) = 0;
  /// Per-layer metrics that need extra runs: bare-layer probes and
  /// re-runs under other settings.  `untraced` is the median end-to-end
  /// repetition of this run, `traced` a traced one.
  [[nodiscard]] virtual Values layer_probes(const Rep& untraced, const Rep& traced) = 0;
  /// Replay the inputs recorded as failing today, outside the measured
  /// set.  One line per input: "<input> ok|<oracle> <at_ms> | replay: <cmd>".
  [[nodiscard]] virtual std::vector<std::string> replay_known_failures() { return {}; }
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const Options& opts);
[[nodiscard]] std::vector<std::string> workload_names();

/// Run chaos_observed's configuration over chaos seeds [0, count); one
/// named failure per failing seed (how known failures are recorded).
[[nodiscard]] std::vector<std::string> scan_chaos_seeds(std::uint64_t count, bool tiny);

}  // namespace perfbench
