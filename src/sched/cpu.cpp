#include "sched/cpu.hpp"

#include <algorithm>

namespace rtpb::sched {

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kEdf: return "EDF";
    case Policy::kRateMonotonic: return "RM";
    case Policy::kDcsSr: return "DCS-Sr";
    case Policy::kFifo: return "FIFO";
  }
  return "?";
}

namespace {
/// The detail of a CpuFact: `a` is the task's interned name, `b` the job
/// index (the preempted task for kPreempt).
void describe(const telemetry::Hub& hub, const telemetry::Event& e, telemetry::Part,
              std::string& out) {
  const std::string_view task = hub.text(static_cast<telemetry::TextId>(e.a));
  switch (static_cast<CpuFact>(e.tag)) {
    case CpuFact::kPreempt: return telemetry::append(out, task, " preempts task ", e.b);
    case CpuFact::kMissedFinish: return telemetry::append(out, task, " #", e.b, " MISSED");
    default: return telemetry::append(out, task, " #", e.b);
  }
}
/// A CPU-possession slice is named "<task> #<index>" and has no detail.
void render_slice(const telemetry::Hub& hub, const telemetry::Event& e, telemetry::Part part,
                  std::string& out) {
  if (part == telemetry::Part::kName) {
    telemetry::append(out, hub.text(static_cast<telemetry::TextId>(e.a)), " #", e.b);
  }
}
}  // namespace

Cpu::Cpu(sim::Simulator& sim, Policy policy, std::string name)
    : sim_(sim),
      policy_(policy),
      facts_(std::move(name), &describe, &sim.telemetry()) {}

Cpu::~Cpu() { stop(); }

TaskId Cpu::add_task(TaskSpec spec, JobCallback on_complete) {
  RTPB_EXPECTS(spec.valid());
  const TaskId id = next_id_++;
  spec.id = id;
  // Built in place: a Task is not movable (its backlog holds jobs
  // inline).
  auto task = std::make_unique<Task>();
  Task& added = *task;
  added.spec = spec;
  added.on_complete = std::move(on_complete);
  added.effective_period = spec.period;
  added.tracker = PhaseVarianceTracker(spec.period);
  const bool inserted = tasks_.insert(id, std::move(task)).second;
  RTPB_ASSERT(inserted);
  if (policy_ == Policy::kDcsSr) respecialize();
  if (started_) {
    added.next_release = sim_.now() + added.spec.phase;
    arm_release(added);
  }
  return id;
}

TaskId Cpu::submit_job(std::string name, Duration exec, JobCallback on_complete) {
  RTPB_EXPECTS(started_);
  RTPB_EXPECTS(exec > Duration::zero());
  const TaskId id = next_id_++;
  auto task = std::make_unique<Task>();  // in place, as in add_task()
  Task& added = *task;
  added.spec.id = id;
  added.spec.name = std::move(name);
  // An effectively-infinite period puts the job at background priority
  // under every fixed-priority policy and gives EDF a far-future deadline.
  added.spec.period = seconds(1'000'000);
  added.spec.wcet = exec;
  added.on_complete = std::move(on_complete);
  added.one_shot = true;
  added.effective_period = added.spec.period;
  added.tracker = PhaseVarianceTracker(added.spec.period);

  Job job;
  job.index = 0;
  job.release = sim_.now();
  job.remaining = exec;
  added.backlog.push_back(job);

  const bool inserted = tasks_.insert(id, std::move(task)).second;
  RTPB_ASSERT(inserted);
  heap_push(added);
  dispatch();
  return id;
}

void Cpu::remove_task(TaskId id) {
  std::unique_ptr<Task>* held = tasks_.find(id);
  if (held == nullptr) return;
  Task& task = **held;
  task.release_event.cancel();
  if (running_ == &task) {
    // Abort the running job: charge busy time up to now, no callback.
    completion_event_.cancel();
    busy_time_ += sim_.now() - running_since_;
    running_ = nullptr;
  }
  if (task.heap_pos != kNotReady) heap_erase(task);
  tasks_.erase(id);
  if (policy_ == Policy::kDcsSr) respecialize();
  if (started_) dispatch();
}

void Cpu::respecialize() {
  // Rebuild the harmonic specialisation over the current task set.  Only
  // future releases use the new periods; trackers restart because the
  // reference period changed.
  TaskSet set;
  set.reserve(tasks_.size());
  for (const auto& [id, task] : tasks_) set.push_back(task->spec);
  const DcsSpecialization spec = dcs_specialize(set);
  std::size_t i = 0;
  for (auto& [id, task] : tasks_) {
    task->effective_period = spec.periods.empty() ? task->spec.period : spec.periods[i];
    task->tracker = PhaseVarianceTracker(task->effective_period);
    ++i;
  }
  heap_rebuild();
}

void Cpu::start(TimePoint at) {
  RTPB_EXPECTS(!started_);
  RTPB_EXPECTS(at >= sim_.now());
  started_ = true;
  started_at_ = at;
  for (auto& [id, task] : tasks_) {
    task->next_release = at + task->spec.phase;
    arm_release(*task);
  }
}

void Cpu::stop() {
  if (!started_) return;
  for (auto& [id, task] : tasks_) task->release_event.cancel();
  if (running_ != nullptr) {
    completion_event_.cancel();
    busy_time_ += sim_.now() - running_since_;
    running_ = nullptr;
  }
  started_ = false;
}

void Cpu::emit(CpuFact f, Task& task, std::uint64_t b, Duration response) {
  telemetry::Hub& hub = sim_.telemetry();
  const telemetry::TextId name = hub.enabled() ? hub.intern(task.tele_name, task.spec.name) : 0;
  if (task.name_hash == 0) task.name_hash = telemetry::Digest::hash(task.spec.name);
  facts_.emit(f, {.a = name, .b = b, .c = task.name_hash, .value = response.nanos()});
}

void Cpu::arm_release(Task& task) {
  // remove_task() and stop() cancel this event, so `task` outlives it.
  task.release_event =
      sim_.schedule_at(task.next_release, [this, &task] { on_release(task); });
}

void Cpu::on_release(Task& task) {
  Job job;
  job.index = task.next_index++;
  job.release = sim_.now();
  job.remaining = task.spec.wcet;
  task.backlog.push_back(job);
  if (task.backlog.size() == 1) heap_push(task);
  emit(CpuFact::kRelease, task, job.index);

  // Periodic re-arm.
  task.next_release += task.effective_period;
  arm_release(task);

  dispatch();
}

void Cpu::on_completion() {
  RTPB_ASSERT(running_ != nullptr);
  Task& task = *running_;
  RTPB_ASSERT(!task.backlog.empty());

  busy_time_ += sim_.now() - running_since_;
  running_ = nullptr;

  Job job = task.backlog.front();
  task.backlog.pop_front();
  if (task.backlog.empty()) {
    heap_erase(task);
  } else {
    heap_fix(task.heap_pos);  // EDF and FIFO key on the head job's release
  }

  JobInfo info;
  info.task = task.spec.id;
  info.index = job.index;
  info.release = job.release;
  info.start = job.start;
  info.finish = sim_.now();
  info.deadline_missed = (sim_.now() - job.release) > task.spec.effective_deadline();

  task.tracker.record_finish(info.finish);
  emit(info.deadline_missed ? CpuFact::kMissedFinish : CpuFact::kFinish, task, info.index,
       info.finish - info.release);
  // Move the callback out rather than copy it (a capturing lambda may live
  // on the heap): it must survive the retire below and a callback that
  // removes its own task.  It goes back only if the task still exists;
  // task ids are never reused.
  const bool retire = task.one_shot && task.backlog.empty();
  JobCallback on_complete = std::move(task.on_complete);
  if (retire) tasks_.erase(info.task);
  if (on_complete) {
    on_complete(info);
    if (!retire) {
      if (std::unique_ptr<Task>* again = tasks_.find(info.task)) {
        (*again)->on_complete = std::move(on_complete);
      }
    }
  }

  dispatch();
}

bool Cpu::higher_priority(const Task& a, const Task& b) const {
  switch (policy_) {
    case Policy::kEdf: {
      const TimePoint da = a.backlog.front().release + a.spec.effective_deadline();
      const TimePoint db = b.backlog.front().release + b.spec.effective_deadline();
      if (da != db) return da < db;
      break;
    }
    case Policy::kRateMonotonic:
      if (a.spec.period != b.spec.period) return a.spec.period < b.spec.period;
      break;
    case Policy::kDcsSr:
      if (a.effective_period != b.effective_period) return a.effective_period < b.effective_period;
      break;
    case Policy::kFifo: {
      const TimePoint ra = a.backlog.front().release;
      const TimePoint rb = b.backlog.front().release;
      if (ra != rb) return ra < rb;
      break;
    }
  }
  return a.spec.id < b.spec.id;
}

Cpu::Task* Cpu::pick_ready() { return ready_.empty() ? nullptr : ready_.front(); }

void Cpu::heap_place(std::size_t pos, Task* task) {
  ready_[pos] = task;
  task->heap_pos = pos;
}

bool Cpu::sift_up(std::size_t pos) {
  Task* const task = ready_[pos];
  const std::size_t from = pos;
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!higher_priority(*task, *ready_[parent])) break;
    heap_place(pos, ready_[parent]);
    pos = parent;
  }
  heap_place(pos, task);
  return pos != from;
}

void Cpu::sift_down(std::size_t pos) {
  Task* const task = ready_[pos];
  const std::size_t n = ready_.size();
  for (std::size_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
    if (child + 1 < n && higher_priority(*ready_[child + 1], *ready_[child])) ++child;
    if (!higher_priority(*ready_[child], *task)) break;
    heap_place(pos, ready_[child]);
    pos = child;
  }
  heap_place(pos, task);
}

void Cpu::heap_fix(std::size_t pos) {
  if (!sift_up(pos)) sift_down(pos);
}

void Cpu::heap_push(Task& task) {
  ready_.push_back(&task);
  sift_up(ready_.size() - 1);
}

void Cpu::heap_erase(Task& task) {
  const std::size_t pos = task.heap_pos;
  RTPB_ASSERT(pos < ready_.size() && ready_[pos] == &task);
  task.heap_pos = kNotReady;
  Task* const last = ready_.back();
  ready_.pop_back();
  if (last == &task) return;
  heap_place(pos, last);
  heap_fix(pos);
}

void Cpu::heap_rebuild() {
  ready_.clear();
  for (auto& [id, task] : tasks_) {
    task->heap_pos = kNotReady;
    if (!task->backlog.empty()) heap_push(*task);
  }
}

void Cpu::dispatch() {
  if (!started_) return;

  // Charge the running job for the time it has had the CPU.
  Task* const prev = running_;
  bool prev_unfinished = false;
  if (running_ != nullptr) {
    Job& job = running_->backlog.front();
    const Duration used = sim_.now() - running_since_;
    job.remaining -= used;
    RTPB_ASSERT(job.remaining >= Duration::zero());
    prev_unfinished = job.remaining > Duration::zero();
    busy_time_ += used;
    completion_event_.cancel();
    running_ = nullptr;
  }

  Task* next = pick_ready();

  telemetry::Hub& hub = sim_.telemetry();
  if (hub.enabled()) {
    // Maintain the CPU-possession slice: one open begin/end pair per job
    // tenure.
    const bool same_tenure = slice_open_ && next != nullptr && next->spec.id == slice_task_ &&
                             !next->backlog.empty() && next->backlog.front().index == slice_index_;
    if (slice_open_ && !same_tenure) {
      hub.record({.at = hub.now(),
                  .a = slice_name_,
                  .b = slice_index_,
                  .render = &render_slice,
                  .track = facts_.track(0),
                  .name = telemetry::kRenderedName,
                  .kind = telemetry::EventKind::kEnd});
      slice_open_ = false;
    }
    if (next != nullptr && !same_tenure) {
      slice_open_ = true;
      slice_task_ = next->spec.id;
      slice_index_ = next->backlog.front().index;
      slice_name_ = hub.intern(next->tele_name, next->spec.name);
      hub.record({.at = hub.now(),
                  .a = slice_name_,
                  .b = slice_index_,
                  .render = &render_slice,
                  .track = facts_.track(0),
                  .name = telemetry::kRenderedName,
                  .kind = telemetry::EventKind::kBegin});
    }
  }
  // A true preemption: the incumbent still had work left but a different
  // job takes the CPU.
  if (prev != nullptr && prev_unfinished && next != nullptr && next != prev) {
    emit(CpuFact::kPreempt, *next, prev->spec.id);
  }

  if (next == nullptr) return;

  Job& job = next->backlog.front();
  if (!job.started) {
    job.started = true;
    job.start = sim_.now();
    emit(CpuFact::kStart, *next, job.index);
  }
  running_ = next;
  running_since_ = sim_.now();
  completion_event_ = sim_.schedule_after(job.remaining, [this] { on_completion(); });
}

const Cpu::Task& Cpu::task_of(TaskId id) const {
  const std::unique_ptr<Task>* held = tasks_.find(id);
  RTPB_EXPECTS(held != nullptr);
  return **held;
}

Duration Cpu::effective_period(TaskId id) const {
  return task_of(id).effective_period;
}

const PhaseVarianceTracker& Cpu::tracker(TaskId id) const {
  return task_of(id).tracker;
}

const TaskSpec& Cpu::spec(TaskId id) const {
  return task_of(id).spec;
}

double Cpu::offered_utilization() const {
  double u = 0.0;
  for (const auto& [id, task] : tasks_) {
    u += task->spec.wcet.ratio(task->effective_period);
  }
  return u;
}

double Cpu::busy_fraction() const {
  if (!started_) return 0.0;
  const Duration elapsed = sim_.now() - started_at_;
  if (elapsed <= Duration::zero()) return 0.0;
  Duration busy = busy_time_;
  if (running_ != nullptr) busy += sim_.now() - running_since_;
  return busy.ratio(elapsed);
}

}  // namespace rtpb::sched
