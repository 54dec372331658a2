// Preemptive single-CPU scheduling simulation.
//
// Each host in the RTPB system (primary, backup) owns a Cpu.  Periodic
// tasks release jobs; the active policy (EDF, Rate-Monotonic, DCS S_r, or
// FIFO) picks which ready job runs; jobs are preempted mid-execution when
// a higher-priority job arrives.  Job completion times — the I_k of the
// paper's phase-variance definition — are reported to per-task trackers
// and to the registered completion callbacks, which is how client updates
// and backup transmissions actually take effect in the protocol layer.
//
// Under DCS S_r the task set's periods are specialised to a harmonic base
// (Han & Lin); with synchronous release and fixed priorities the schedule
// is cyclic, so each task finishes at a fixed offset in every period and
// its phase variance is exactly zero (paper Theorem 3).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sched/analysis.hpp"
#include "sched/phase_variance.hpp"
#include "sched/task.hpp"
#include "sim/simulator.hpp"
#include "telemetry/facts.hpp"

namespace rtpb::sched {

enum class Policy { kEdf, kRateMonotonic, kDcsSr, kFifo };

[[nodiscard]] const char* policy_name(Policy p);

using JobCallback = std::function<void(const JobInfo&)>;

/// What happens to jobs on a CPU.  A job that finishes past its deadline
/// is a kMissedFinish, which also counts as a kFinish.  A job's release,
/// first start and finish feed the trace digest; kStart feeds nothing else
/// (the Hub sees a start as the CPU slice it opens).  A fact's `a` is the
/// task's interned name, `b` the job index and `c` the hash of the name,
/// which stands for it in the digest.
enum class CpuFact : std::uint8_t { kRelease, kFinish, kMissedFinish, kPreempt, kStart, kCount };

constexpr telemetry::FactSinks<CpuFact> fact_sinks(CpuFact f) {
  switch (f) {
    case CpuFact::kRelease: return {.counter = "sched.releases", .event = "job-release",
                                    .digest = true, .text = true};
    case CpuFact::kFinish: return {.counter = "sched.completions", .event = "job-finish",
                                   .histogram = "sched.response_ms", .duration = true,
                                   .digest = true, .text = true};
    case CpuFact::kMissedFinish: return {.counter = "sched.deadline_misses",
                                         .event = "job-finish",
                                         .histogram = "sched.response_ms", .duration = true,
                                         .also = CpuFact::kFinish, .digest = true, .text = true};
    case CpuFact::kPreempt: return {.counter = "sched.preemptions", .event = "preempt"};
    case CpuFact::kStart: return {.digest = true, .text = true};
    case CpuFact::kCount: break;
  }
  return {};
}

class Cpu {
 public:
  Cpu(sim::Simulator& sim, Policy policy, std::string name = "cpu");
  ~Cpu();

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  /// Register a periodic task.  `on_complete` fires at each job's finish
  /// time (may be null for pure load tasks).  If the CPU is already
  /// started, releases begin at now + spec.phase.
  TaskId add_task(TaskSpec spec, JobCallback on_complete);

  /// Unregister a task: pending jobs are discarded; a running job is
  /// aborted without a completion callback.
  void remove_task(TaskId id);

  /// Submit a one-shot aperiodic job, released now and served at
  /// background priority (it never delays a periodic task under RM/DCS;
  /// under EDF it carries an effectively infinite deadline).  The pseudo
  /// task disappears after the job completes.  Requires a started CPU.
  TaskId submit_job(std::string name, Duration exec, JobCallback on_complete);

  /// Begin releasing jobs.  Task phases are relative to `at`.
  void start(TimePoint at);
  void start() { start(sim_.now()); }
  void stop();
  [[nodiscard]] bool started() const { return started_; }

  [[nodiscard]] Policy policy() const { return policy_; }
  /// The task whose job currently holds the CPU (kInvalidTask when idle).
  [[nodiscard]] TaskId running() const {
    return running_ != nullptr ? running_->spec.id : kInvalidTask;
  }
  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }
  [[nodiscard]] bool has_task(TaskId id) const { return tasks_.contains(id); }

  /// The period at which jobs are actually released: equals the spec
  /// period except under DCS S_r, where it is the specialised (harmonic)
  /// period ≤ the spec period.
  [[nodiscard]] Duration effective_period(TaskId id) const;

  [[nodiscard]] const PhaseVarianceTracker& tracker(TaskId id) const;
  [[nodiscard]] const TaskSpec& spec(TaskId id) const;

  [[nodiscard]] std::uint64_t deadline_misses() const {
    return facts_.count(CpuFact::kMissedFinish);
  }
  [[nodiscard]] std::uint64_t jobs_completed() const { return facts_.count(CpuFact::kFinish); }
  [[nodiscard]] double offered_utilization() const;
  /// Fraction of time the CPU was busy since start().
  [[nodiscard]] double busy_fraction() const;

 private:
  struct Job {
    std::uint64_t index = 0;
    TimePoint release{};
    TimePoint start{};
    Duration remaining{};
    bool started = false;
  };

  static constexpr std::size_t kNotReady = static_cast<std::size_t>(-1);

  struct Task {
    TaskSpec spec;
    JobCallback on_complete;
    bool one_shot = false;
    Duration effective_period{};
    std::unique_ptr<PhaseVarianceTracker> tracker;
    std::deque<Job> backlog;  ///< released, unfinished jobs (head may be running)
    std::uint64_t next_index = 0;
    TimePoint next_release{};
    sim::EventHandle release_event;
    std::size_t heap_pos = kNotReady;  ///< index in ready_, kNotReady when backlog is empty
    telemetry::TextId tele_name = 0;   ///< spec.name interned, on first use
    std::uint64_t name_hash = 0;       ///< spec.name's Digest::hash, on first use
  };

  void arm_release(Task& task);
  void on_release(Task& task);
  void on_completion();
  /// Charge the running job for CPU time since it was last resumed, then
  /// re-pick the highest-priority ready job and (re)schedule completion.
  void dispatch();
  [[nodiscard]] Task* pick_ready();
  /// Strictly-less comparison: does job of `a` beat job of `b`?
  [[nodiscard]] bool higher_priority(const Task& a, const Task& b) const;
  void respecialize();
  /// Report `f` about `task`'s job (or, for a preemption, the task it
  /// preempts) `b`; `response` is a finished job's response time.  The
  /// task's name is interned only while the Hub collects.
  void emit(CpuFact f, Task& task, std::uint64_t b, Duration response = Duration::zero());

  // Ready heap.  ready_ is a binary heap over the tasks whose backlog is
  // non-empty, ordered by higher_priority(); the running task stays in it
  // because its head job is still in the backlog.  higher_priority() is a
  // strict total order (ties fall to the unique TaskId), so the top is
  // exactly the task a scan of tasks_ would pick.  A task's key changes
  // only where its backlog head or effective period does, and each of
  // those places updates the heap: on_release (empty -> one job: push),
  // submit_job (push), on_completion (pop_front: erase if now empty, else
  // re-sift), remove_task (erase) and respecialize (every DCS period
  // moves: rebuild).  Task pointers stay valid because std::map nodes
  // never move.
  void heap_push(Task& task);
  void heap_erase(Task& task);
  /// Restore heap order around position `pos` after its key changed.
  void heap_fix(std::size_t pos);
  void heap_rebuild();
  bool sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void heap_place(std::size_t pos, Task* task);

  sim::Simulator& sim_;
  Policy policy_;
  std::map<TaskId, Task> tasks_;  // ordered: deterministic iteration
  std::vector<Task*> ready_;      // binary heap, top = highest priority
  TaskId next_id_ = 1;
  bool started_ = false;
  TimePoint started_at_{};

  Task* running_ = nullptr;  // task whose head job holds the CPU
  TimePoint running_since_{};
  sim::EventHandle completion_event_;

  // Open CPU-possession slice on the telemetry track named after this CPU
  // (begin/end pairs survive preemption round-trips of the same job).
  bool slice_open_ = false;
  TaskId slice_task_ = kInvalidTask;
  std::uint64_t slice_index_ = 0;
  telemetry::TextId slice_name_ = 0;  ///< the slice's task name, interned

  telemetry::Facts<CpuFact> facts_;  ///< on the track named after this CPU
  Duration busy_time_{};
};

}  // namespace rtpb::sched
