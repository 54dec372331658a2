// Bounded model checking for the failover/epoch protocol.
//
// The deterministic simulator makes the nondeterminism of a run explicit:
// which of several same-instant events fires first, which frames a link
// drops, and which scripted fault candidates (crash / recruit / partition)
// actually fire.  The explorer drives those decisions through the
// simulator's ChoicePoint seam (sim/choice.hpp) and enumerates the
// alternatives by stateless depth-first search: each trajectory is a fresh
// RtpbService run replaying a recorded decision prefix and taking defaults
// beyond it (CHESS-style trace replay).  Every trajectory is a
// chaos::Experiment, judged by the same OracleMonitor as a chaos seed.
//
// Reductions (both on by default, both reported in the ExploreReport so
// nothing is silently capped):
//
//   sleep sets    only frame *deliveries* are schedulable nondeterminism —
//                 local timers fire in deterministic scheduler order (part
//                 of the simulated host, not a race) and two frames on one
//                 directed link keep FIFO (part of the network model).
//                 Among the remaining delivery orderings, those with
//                 different receivers commute and are skipped.
//   state hashing trajectories that reach a previously-expanded canonical
//                 state (FNV-1a over per-replica role / crashed / epoch /
//                 object versions / pending transfers, plus virtual time
//                 and per-link in-flight counts) do not re-expand their
//                 alternatives.  The hash does not capture in-flight frame
//                 *contents*, so this pruning is a documented heuristic:
//                 hash-equal states are treated as equivalent.  The seeded
//                 chaos sweep remains the probabilistic backstop.
//
// Within explore() a trajectory hashes state (and records which
// event-order alternatives matter) only at choice points at or past the
// prefix it replays.  A prefix of length k is the decisions of the
// trajectory that pushed it, with an alternative at its last place, and a
// replay is deterministic: the same seed and the same first k decisions
// reach the same k choice-point states.  The pushing trajectory has
// already inserted those hashes into the visited set and expanded those
// choice points, so hashing them again changes no count and no expansion.
// minimize() hashes nothing; run_trajectory() hashes every choice point.
//
// Parallel sweep.  explore() runs trajectories on a pool of runner
// threads but commits their results in exactly the serial DFS pop order,
// so every count, state set, expansion and counterexample is the same at
// every thread count.  This is sound because pruning happens when a
// prefix is *pushed*: once stacked, a prefix is always run (unless a
// violation or the trajectory cap ends the sweep), and its run depends on
// nothing but the configuration and the prefix.  So runners take stacked
// prefixes early — the top-most not yet taken, the next to be popped —
// while the calling thread pops in DFS order, runs the popped prefix
// itself if no runner has taken it, and does everything order-dependent:
// the visited and expanded sets, the report counters, the pushes, the
// progress lines, the violation break.  A result speculated past a
// violation or the cap is dropped uncounted.  minimize() runs each greedy
// round's candidate flips on the same pool and keeps the lowest index
// that reproduces — the one the serial scan would take.
//
// On a violation the explorer greedily minimizes the decision trace (every
// non-default choice is flipped back to default while the violation
// persists) and emits a Counterexample: a self-contained text artifact
// carrying the scenario, the chosen fault actions rendered as a FaultPlan
// reproducer (the PR-1 format), and the exact choice trace.  chaos_main
// --replay re-runs it and confirms the same oracle fires.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "chaos/oracles.hpp"
#include "chaos/sabotage.hpp"
#include "chaos/schedule.hpp"
#include "core/faults.hpp"
#include "sim/choice.hpp"

namespace rtpb::explore {

struct ExploreBounds {
  Duration horizon = millis(1500);           ///< virtual time per trajectory
  std::size_t max_trajectories = 20000;      ///< DFS size cap (reported if hit)
  std::size_t max_choice_points = 160;       ///< depth bound per trajectory
  std::uint32_t fault_budget = 2;            ///< fault candidates taken per trajectory
  std::uint32_t drop_budget = 1;             ///< frames dropped per trajectory
  /// Frames are droppable only inside [drop_from, drop_until] of virtual
  /// time; an empty window (until <= from) disables drop branching.
  TimePoint drop_from{};
  TimePoint drop_until{};
};

struct ExploreConfig {
  std::size_t backups = 1;    ///< 1 → the paper's 2-node pair
  std::size_t objects = 1;
  std::uint64_t service_seed = 1;
  bool epoch_fencing = true;  ///< false = the split-brain sabotage
  /// Failure-detector misses before declaring (see plant()).
  std::uint32_t ping_max_misses = 3;
  /// Oracle grace declared around a chosen fault candidate (partition
  /// candidates declare twice this, matching the chaos schedule's
  /// split-brain arc).
  Duration failover_grace = millis(700);
  /// Fault candidate instants.  Pick instants off the protocol's periodic
  /// grids (e.g. 251 ms against 20 ms pings) so candidates do not tie with
  /// unrelated timers.  crash/partition candidates are explored as binary
  /// choices; add_standby candidates are *recovery* actions, not faults —
  /// one fires deterministically when a crash fired earlier in the
  /// trajectory (the service has no autonomous re-recruitment, so a
  /// crash with no recruit ever is unrecoverable by construction: its
  /// stale distances would be scenario artifacts, not protocol bugs —
  /// exactly why the chaos generator always pairs a crash with a recruit).
  /// A crash's declared epoch therefore runs to the next recovery
  /// candidate + grace, the same arc the chaos schedule declares.
  std::vector<Duration> crash_primary_at;
  std::vector<Duration> crash_backup_at;
  std::vector<Duration> add_standby_at;
  std::vector<Duration> partition_at;
  /// Crash-restart candidates (durable replicas only — arming any of these
  /// switches the explored service to durable storage).  Unlike plain
  /// crashes these recover by *themselves* — the crashed replica restarts
  /// from WAL + checkpoint after `restart_delay` — so they neither consume
  /// an add-standby recovery candidate nor require one.
  std::vector<Duration> crash_restart_primary_at;
  std::vector<Duration> crash_restart_backup_at;
  Duration restart_delay = millis(400);
  /// The torn-write sabotage: a fired crash-restart candidate also shears
  /// this many bytes off the victim's WAL tail while it is down (0 = off).
  std::size_t torn_tail_bytes = 0;
  ExploreBounds bounds;
  bool prune_visited = true;  ///< state-hash expansion pruning
  bool sleep_sets = true;     ///< commuting-delivery reduction

  /// The candidate instants of `kind`, or nullptr for a kind the explorer
  /// does not arm.
  [[nodiscard]] std::vector<Duration>* candidates(core::FaultKind kind);
  [[nodiscard]] const std::vector<Duration>* candidates(core::FaultKind kind) const {
    return const_cast<ExploreConfig*>(this)->candidates(kind);
  }
  /// The candidate fault of `kind` at `at`: a crash-restart powers back
  /// up restart_delay later.
  [[nodiscard]] core::Fault candidate(core::FaultKind kind, TimePoint at) const;
};

/// The kinds the explorer arms as candidates, in arming order.
inline constexpr core::FaultKind kCandidateKinds[] = {
    core::FaultKind::kCrashPrimary,        core::FaultKind::kCrashBackup,
    core::FaultKind::kAddStandby,          core::FaultKind::kPartitionPrimary,
    core::FaultKind::kCrashRestartPrimary, core::FaultKind::kCrashRestartBackup,
};

/// Plant sabotage `mode` into `cfg`: its bug, and the one fault candidate
/// that exposes it (at 251 ms, budget 1, no frame drops) in place of all
/// others.  False, with `cfg` untouched, for a mode it cannot plant.
[[nodiscard]] bool plant(const chaos::Sabotage& mode, ExploreConfig& cfg);

/// One recorded decision of a trajectory.
struct Choice {
  sim::ChoiceKind kind{};
  std::uint16_t options = 2;
  std::uint16_t chosen = 0;
  std::uint16_t alts_count = 0;       ///< event-order ties: see alts_begin
  std::uint32_t a = 0;                ///< frame fates: directed link src
  std::uint32_t b = 0;                ///< frame fates: directed link dst
  std::uint64_t frame = 0;            ///< frame fates: per-link frame ordinal
  core::FaultKind fault{};            ///< fault candidates: which one
  /// Event-order ties recorded with their state hash: the alternatives
  /// that matter are TrajectoryResult::order_alternatives[alts_begin,
  /// alts_begin + alts_count).
  std::uint32_t alts_begin = 0;
  TimePoint at{};
};

/// A fault the trajectory actually took (for the FaultPlan rendering).
struct FaultAction {
  bool drop = false;                  ///< a dropped frame, not a FaultPlan fault
  core::FaultKind kind{};             ///< the candidate taken, unless `drop`
  TimePoint at{};
  std::uint32_t a = 0;                ///< drop-frame: directed link src
  std::uint32_t b = 0;                ///< drop-frame: directed link dst
  std::uint64_t frame = 0;            ///< drop-frame: per-link frame ordinal
};

struct TrajectoryResult {
  std::vector<Choice> choices;
  /// Canonical state hash at each choice point (parallel to `choices`).
  std::vector<std::uint64_t> state_hashes;
  std::uint64_t final_hash = 0;
  std::vector<chaos::OracleViolation> violations;
  std::vector<FaultAction> actions;
  /// Every hashed event-order choice's alternatives, ascending: tie member
  /// j is listed iff firing it first is an ordering the model explores
  /// (neither a same-link FIFO inversion nor, with sleep sets on, a
  /// commuting delivery).  Read through alternatives().
  std::vector<std::uint16_t> order_alternatives;
  bool choice_bound_hit = false;
  /// Observer artifact paths that could not be opened
  /// (chaos::SeedReport::unwritable).
  std::vector<std::string> unwritable;
  /// The decision sequence actually taken (what to feed back as a trace).
  [[nodiscard]] std::vector<std::uint16_t> decisions() const;
  /// The alternatives of event-order choice `c` of this trajectory (empty
  /// for a choice recorded without its state hash).
  [[nodiscard]] std::span<const std::uint16_t> alternatives(const Choice& c) const {
    return std::span<const std::uint16_t>(order_alternatives).subspan(c.alts_begin, c.alts_count);
  }
};

/// A minimized, replayable violation witness.
struct Counterexample {
  ExploreConfig config;
  std::vector<std::uint16_t> trace;   ///< exact decision sequence
  std::vector<FaultAction> actions;   ///< the faults that sequence takes
  std::string oracle;                 ///< violated oracle, e.g. "cross-epoch-apply"
  std::string detail;
  /// Serialize to the replayable text artifact (parse_counterexample
  /// round-trips it; the embedded FaultPlan snippet is for humans).
  [[nodiscard]] std::string to_text() const;
  /// Ready-to-paste C++ FaultPlan reproducer for the chosen actions.
  [[nodiscard]] std::string fault_plan() const;
};

[[nodiscard]] std::optional<Counterexample> parse_counterexample(const std::string& text);

struct ExploreReport {
  std::uint64_t trajectories = 0;
  std::uint64_t choice_points = 0;     ///< total decisions recorded
  std::uint64_t states_visited = 0;    ///< distinct canonical state hashes
  std::uint64_t pruned_visited = 0;    ///< expansions skipped: state already expanded
  std::uint64_t pruned_sleep = 0;      ///< expansions skipped: commuting deliveries
  std::uint64_t truncated = 0;         ///< trajectories cut by the choice bound
  bool hit_trajectory_cap = false;
  std::vector<Counterexample> counterexamples;  ///< minimized; empty on a clean sweep
  [[nodiscard]] bool ok() const { return counterexamples.empty(); }
  [[nodiscard]] std::string summary() const;
};

/// Run one trajectory: fresh service, replay `trace`, defaults beyond it.
/// `observe` attaches pure observers (counterexample autopsies): the
/// decision sequence and oracle outcomes are identical with or without.
[[nodiscard]] TrajectoryResult run_trajectory(const ExploreConfig& cfg,
                                              const std::vector<std::uint16_t>& trace,
                                              const chaos::Observers& observe = {});

/// Exhaustive bounded sweep.  Stops at the first violation (after
/// minimizing it) or when the choice tree is exhausted / capped.  Runs
/// trajectories on `threads` runners (the calling thread plus threads - 1
/// workers; 0 means std::thread::hardware_concurrency()); the report is
/// the same at every thread count, and one thread starts no thread.
[[nodiscard]] ExploreReport explore(const ExploreConfig& cfg, std::ostream* progress = nullptr,
                                    unsigned threads = 0);

/// Greedily flip non-default choices back to default while the violation
/// persists, then drop trailing defaults.  Runs on one runner per hardware
/// thread; the result is the one the serial scan finds.
[[nodiscard]] Counterexample minimize(const Counterexample& ce);

/// Re-run a counterexample.  The violation reproduced iff the result's
/// violations contain ce.oracle.
[[nodiscard]] TrajectoryResult replay(const Counterexample& ce);
[[nodiscard]] bool reproduces(const TrajectoryResult& result, const std::string& oracle);

}  // namespace rtpb::explore
