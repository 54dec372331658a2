// Scripted fault injection for experiments and chaos tests.
//
// A Fault is one typed record: a kind, its instant or interval and its
// knobs.  The chaos schedule generates Faults, the explorer arms them as
// candidates, and a FaultPlan holds them as a timeline applied to a
// running RtpbService: loss storms, link degradation, node crashes,
// standby recruitment.  The plan arms itself on the service's simulator,
// so faults land at exact virtual times regardless of how the experiment
// slices its run_for calls.
//
// One vocabulary serves every layer: fault_kind_name names a kind (and
// fault_kind_from_name parses it back), FaultPlan fires every kind through
// one start/end switch, and reproducer_line renders a Fault as the
// FaultPlan call that re-adds it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/service.hpp"

namespace rtpb::core {

enum class FaultKind : std::uint8_t {
  kLossStorm,         ///< §5 update-stream loss at the primary
  kLinkDegradation,   ///< Bernoulli loss on the genuine link (all traffic)
  kDuplicationBurst,  ///< frames delivered twice
  kReorderBurst,      ///< frames exempted from FIFO
  kBurstLoss,         ///< correlated frame loss
  kCorruptionBurst,   ///< single-bit frame corruption
  kCrashPrimary,
  kCrashBackup,
  kAddStandby,
  kPartitionPrimary,  ///< isolate primary from its successor (split brain)
  kCpuSpike,           ///< steal a CPU fraction on the acting primary
  kThrottleBandwidth,  ///< shrink link bandwidth to a fraction (queueing)
  kInflateLatency,     ///< add base propagation delay (RTT inflation)
  kShardLossStorm,     ///< update loss confined to one shard's objects
  kCrashRestartPrimary,  ///< crash, then power up from durable state
  kCrashRestartBackup,
};
inline constexpr std::size_t kFaultKinds = 16;

/// The kind's name ("loss-storm", "crash-restart-backup", …): the verb of
/// its FaultPlan builder with '-' for '_'.
[[nodiscard]] const char* fault_kind_name(FaultKind k);
/// The kind named `name`, or nullopt for a name no kind has.
[[nodiscard]] std::optional<FaultKind> fault_kind_from_name(std::string_view name);

struct Fault {
  FaultKind kind{};
  TimePoint at{};                  ///< start (the instant, for crash/standby)
  TimePoint until{};               ///< end of interval faults, restart of
                                   ///< crash-restarts; == at otherwise
  double probability = 0.0;        ///< loss/dup/…; also cpu/bandwidth fraction
  Duration extra{};                ///< reorder extra delay / latency inflation
  std::uint32_t burst_length = 0;  ///< burst-loss run length
  std::uint32_t shard = 0;         ///< target shard (kShardLossStorm only)
  /// Explorer candidate: at `at` the plan consults the simulator's choice
  /// seam (ChoiceKind::kFault) and the fault fires only if the installed
  /// policy says so.  Under the default RNG strategy the decision is
  /// bernoulli(probability), and 0.0 draws nothing at all, so arming
  /// candidates never perturbs chaos digests.  A candidate is offered only
  /// when its target can take it (not already crashed, no standby yet,
  /// durable for a restart), so policies may say "yes" liberally; its end
  /// half fires only if its start half did.
  bool candidate = false;
};

/// How reproducer_line prints an instant: `at_ms(<ms>)` (chaos schedules,
/// quantised to 1 ms) or `TimePoint{<ns>}` (explorer counterexamples).
enum class ReproTime : std::uint8_t { kMillis, kNanos };

/// The FaultPlan call that adds `f` again, e.g.
/// "plan.loss_storm(at_ms(100), at_ms(900), 0.30);\n".  A shard loss storm,
/// which only chaos::run_seed can apply, renders as a comment.
[[nodiscard]] std::string reproducer_line(const Fault& f, ReproTime unit);

class FaultPlan {
 public:
  explicit FaultPlan(RtpbService& service) : service_(service) {}

  /// Add `fault`: its start half fires at `at` and, for an interval fault
  /// or a crash-restart, its end half at `until`.  A kShardLossStorm needs
  /// the shard placement, so chaos::Experiment scripts it with at().
  FaultPlan& add(const Fault& fault);

  /// Inject update-stream loss (the paper's §5 loss knob) on the primary
  /// from `from` until `until`.
  FaultPlan& loss_storm(TimePoint from, TimePoint until, double probability) {
    return add({FaultKind::kLossStorm, from, until, probability});
  }

  /// Degrade the genuine link (every message class at risk) between the
  /// primary and the designated-successor backup.
  FaultPlan& link_degradation(TimePoint from, TimePoint until, double probability) {
    return add({FaultKind::kLinkDegradation, from, until, probability});
  }

  /// Duplicate messages on the primary↔backup link with `probability`
  /// between `from` and `until` (tests at-most-once handling above UDP).
  FaultPlan& duplication_burst(TimePoint from, TimePoint until, double probability) {
    return add({FaultKind::kDuplicationBurst, from, until, probability});
  }

  /// Exempt messages from FIFO delivery with `probability`, delaying each
  /// exempted message by up to `extra` so later sends overtake it.
  FaultPlan& reorder_burst(TimePoint from, TimePoint until, double probability,
                           Duration extra = millis(2)) {
    return add({FaultKind::kReorderBurst, from, until, probability, extra});
  }

  /// Correlated loss: each message may open a burst (probability
  /// `enter_probability`) that swallows `burst_length` consecutive frames.
  FaultPlan& burst_loss(TimePoint from, TimePoint until, double enter_probability,
                        std::uint32_t burst_length) {
    return add({FaultKind::kBurstLoss, from, until, enter_probability, {}, burst_length});
  }

  /// Flip one random bit per affected frame (the transport checksum must
  /// catch these; to the service they look like loss).
  FaultPlan& corruption_burst(TimePoint from, TimePoint until, double probability) {
    return add({FaultKind::kCorruptionBurst, from, until, probability});
  }

  /// Steal `fraction` of the acting primary's CPU between `from` and
  /// `until` with a short-period hog task (5 ms period, wcet =
  /// fraction × period).  Under RM the hog outranks every admitted update
  /// task, so their releases slip — the overload DegradationController
  /// must absorb.
  FaultPlan& cpu_spike(TimePoint from, TimePoint until, double fraction) {
    return add({FaultKind::kCpuSpike, from, until, fraction});
  }

  /// Throttle the primary↔backup link to `fraction` of its configured
  /// bandwidth between `from` and `until` (queueing delay growth; the
  /// shedding + renegotiation path must keep violations announced).
  FaultPlan& throttle_bandwidth(TimePoint from, TimePoint until, double fraction) {
    return add({FaultKind::kThrottleBandwidth, from, until, fraction});
  }

  /// Add `extra` to the link's base propagation delay between `from` and
  /// `until` (RTT inflation; adaptive timeouts must widen instead of
  /// spuriously declaring the peer dead).
  FaultPlan& inflate_latency(TimePoint from, TimePoint until, Duration extra) {
    return add({FaultKind::kInflateLatency, from, until, 0.0, extra});
  }

  /// Partition the original primary from the designated-successor backup
  /// at `at` (loss 1.0, both directions, permanently).  The successor
  /// declares the primary dead and promotes while the old primary keeps
  /// running — the split-brain scenario epoch fencing must resolve.
  FaultPlan& partition_primary(TimePoint at) {
    return add({FaultKind::kPartitionPrimary, at, at});
  }

  /// Crash the primary at `at`.
  FaultPlan& crash_primary(TimePoint at) { return add({FaultKind::kCrashPrimary, at, at}); }
  /// Crash the successor backup at `at`.
  FaultPlan& crash_backup(TimePoint at) { return add({FaultKind::kCrashBackup, at, at}); }
  /// Recruit a fresh standby at `at` (wired to whoever is primary then).
  FaultPlan& add_standby(TimePoint at) { return add({FaultKind::kAddStandby, at, at}); }

  /// Crash the original primary at `at` and power it back up from its
  /// durable state at `restart_at` (durable mode only; it rejoins as a
  /// backup via incremental resync).  The crash half no-ops if the replica
  /// is already down; the restart half no-ops if it is not.
  FaultPlan& crash_restart_primary(TimePoint at, TimePoint restart_at) {
    return add({FaultKind::kCrashRestartPrimary, at, restart_at});
  }
  /// Same for the successor backup.
  FaultPlan& crash_restart_backup(TimePoint at, TimePoint restart_at) {
    return add({FaultKind::kCrashRestartBackup, at, restart_at});
  }
  /// Sabotage: shear `bytes` off the tail of replica `replica_index`'s WAL
  /// device at `at` (index in for_each_replica order).  Run against a
  /// replica that is down, this forges a durability hole the
  /// durable-recovery oracle MUST catch on restart — the harness canary.
  FaultPlan& tear_wal_tail(TimePoint at, std::size_t replica_index, std::size_t bytes);

  /// Arbitrary scripted action.
  FaultPlan& at(TimePoint when, std::string label, std::function<void()> action);

  /// Schedule every recorded action on the service's simulator.  May be
  /// called at most once.  Actions whose time is already in the past fire
  /// deterministically at the current virtual instant, in plan order.
  void arm();

  /// Labels of actions that have fired so far, in virtual-time order
  /// (insertion order breaks ties at equal times).
  [[nodiscard]] const std::vector<std::string>& fired() const { return fired_; }

 private:
  /// A fault and what its start half saved for its end half.
  struct Entry {
    Fault fault;
    sched::TaskId hog = sched::kInvalidTask;  ///< kCpuSpike: the hog task
    double bandwidth = 0.0;                   ///< kThrottleBandwidth: the link's own
    Duration propagation{};                   ///< kInflateLatency: the link's own
    bool chosen = false;                      ///< candidate: the choice seam said yes
  };
  struct Script {
    std::string label;
    std::function<void()> fn;
  };
  enum class Half : std::uint8_t { kStart, kEnd, kScript };
  struct Action {
    TimePoint when;
    std::size_t index;  ///< into entries_, or scripts_ for Half::kScript
    Half half;
  };

  void fire(const Action& action);
  /// May candidate `f` fire now?  Asks the choice seam only when its
  /// target can take it.
  [[nodiscard]] bool decide(const Fault& f);
  /// The one switch: run the start or end half of `e`'s fault.
  void apply(Entry& e, bool start);

  RtpbService& service_;
  std::vector<Entry> entries_;
  std::vector<Script> scripts_;
  std::vector<Action> actions_;
  std::vector<std::string> fired_;
  bool armed_ = false;
};

}  // namespace rtpb::core
