#include "sched/cpu.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sched/theory.hpp"

namespace rtpb::sched {
namespace {

TaskSpec make_task(Duration period, Duration wcet, Duration phase = Duration::zero()) {
  TaskSpec t;
  t.period = period;
  t.wcet = wcet;
  t.phase = phase;
  return t;
}

TEST(Cpu, SingleTaskRunsPeriodically) {
  sim::Simulator sim;
  Cpu cpu(sim, Policy::kRateMonotonic);
  std::vector<JobInfo> jobs;
  cpu.add_task(make_task(millis(10), millis(2)), [&](const JobInfo& j) { jobs.push_back(j); });
  cpu.start(TimePoint::zero());
  sim.run_until(TimePoint::zero() + millis(50));
  ASSERT_EQ(jobs.size(), 5u);  // releases at 0,10,20,30,40
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].release, TimePoint::zero() + millis(10) * static_cast<std::int64_t>(i));
    EXPECT_EQ(jobs[i].finish - jobs[i].release, millis(2));
    EXPECT_FALSE(jobs[i].deadline_missed);
  }
}

TEST(Cpu, RmPreemptsLowerPriority) {
  sim::Simulator sim;
  Cpu cpu(sim, Policy::kRateMonotonic);
  std::vector<std::pair<TaskId, TimePoint>> finishes;
  // Long task released at 0, short task released at 1ms preempts it.
  const TaskId long_id = cpu.add_task(
      make_task(millis(100), millis(10)),
      [&](const JobInfo& j) { finishes.emplace_back(j.task, j.finish); });
  const TaskId short_id = cpu.add_task(
      make_task(millis(20), millis(3), millis(1)),
      [&](const JobInfo& j) { finishes.emplace_back(j.task, j.finish); });
  cpu.start(TimePoint::zero());
  sim.run_until(TimePoint::zero() + millis(15));
  ASSERT_EQ(finishes.size(), 2u);
  // Short task (higher RM priority) finishes first at 1+3=4ms...
  EXPECT_EQ(finishes[0].first, short_id);
  EXPECT_EQ(finishes[0].second, TimePoint::zero() + millis(4));
  // ...and the long task's completion is pushed out by the preemption.
  EXPECT_EQ(finishes[1].first, long_id);
  EXPECT_EQ(finishes[1].second, TimePoint::zero() + millis(13));
}

TEST(Cpu, EdfPrefersEarlierDeadline) {
  sim::Simulator sim;
  Cpu cpu(sim, Policy::kEdf);
  std::vector<TaskId> order;
  // Same release; task B has shorter deadline (= period), so runs first
  // under EDF even though A was added first.
  cpu.add_task(make_task(millis(50), millis(5)), [&](const JobInfo& j) { order.push_back(j.task); });
  const TaskId b = cpu.add_task(make_task(millis(20), millis(5)),
                                [&](const JobInfo& j) { order.push_back(j.task); });
  cpu.start(TimePoint::zero());
  sim.run_until(TimePoint::zero() + millis(15));
  ASSERT_GE(order.size(), 2u);
  EXPECT_EQ(order[0], b);
}

TEST(Cpu, FifoRunsInReleaseOrder) {
  sim::Simulator sim;
  Cpu cpu(sim, Policy::kFifo);
  std::vector<TaskId> order;
  const TaskId a = cpu.add_task(make_task(millis(100), millis(5)),
                                [&](const JobInfo& j) { order.push_back(j.task); });
  const TaskId b = cpu.add_task(make_task(millis(10), millis(1), millis(2)),
                                [&](const JobInfo& j) { order.push_back(j.task); });
  cpu.start(TimePoint::zero());
  sim.run_until(TimePoint::zero() + millis(8));
  // a released at 0 runs to completion (5ms) despite b arriving at 2ms.
  ASSERT_GE(order.size(), 2u);
  EXPECT_EQ(order[0], a);
  EXPECT_EQ(order[1], b);
}

TEST(Cpu, DeadlineMissDetectedUnderOverload) {
  sim::Simulator sim;
  Cpu cpu(sim, Policy::kRateMonotonic);
  cpu.add_task(make_task(millis(10), millis(8)), nullptr);
  cpu.add_task(make_task(millis(20), millis(8)), nullptr);  // U = 1.2: overload
  cpu.start(TimePoint::zero());
  sim.run_until(TimePoint::zero() + millis(200));
  EXPECT_GT(cpu.deadline_misses(), 0u);
}

TEST(Cpu, BusyFractionMatchesUtilization) {
  sim::Simulator sim;
  Cpu cpu(sim, Policy::kRateMonotonic);
  cpu.add_task(make_task(millis(10), millis(3)), nullptr);
  cpu.start(TimePoint::zero());
  sim.run_until(TimePoint::zero() + millis(1000));
  EXPECT_NEAR(cpu.busy_fraction(), 0.3, 0.01);
  EXPECT_NEAR(cpu.offered_utilization(), 0.3, 1e-9);
}

TEST(Cpu, RemoveTaskStopsReleases) {
  sim::Simulator sim;
  Cpu cpu(sim, Policy::kRateMonotonic);
  int count = 0;
  const TaskId id = cpu.add_task(make_task(millis(10), millis(1)),
                                 [&](const JobInfo&) { ++count; });
  cpu.start(TimePoint::zero());
  sim.run_until(TimePoint::zero() + millis(35));
  const int at_remove = count;
  cpu.remove_task(id);
  sim.run_until(TimePoint::zero() + millis(100));
  EXPECT_EQ(count, at_remove);
  EXPECT_FALSE(cpu.has_task(id));
}

TEST(Cpu, CompletionCallbackMayRemoveItsOwnTask) {
  sim::Simulator sim;
  Cpu cpu(sim, Policy::kRateMonotonic);
  int count = 0;
  TaskId self = kInvalidTask;
  self = cpu.add_task(make_task(millis(10), millis(1)), [&](const JobInfo& j) {
    ++count;
    if (j.index == 2) cpu.remove_task(self);
  });
  int other = 0;
  cpu.add_task(make_task(millis(7), millis(1)), [&](const JobInfo&) { ++other; });
  cpu.start(TimePoint::zero());
  sim.run_until(TimePoint::zero() + millis(100));
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(cpu.has_task(self));
  EXPECT_EQ(other, 15);  // releases at 0, 7, ..., 98
}

TEST(Cpu, CompletionCallbackMayRemoveAnotherReadyTask) {
  sim::Simulator sim;
  Cpu cpu(sim, Policy::kRateMonotonic);
  std::vector<std::pair<TaskId, TimePoint>> finishes;
  const auto log = [&](const JobInfo& j) { finishes.emplace_back(j.task, j.finish); };
  // All three release at 0; RM runs a, then b, then c.  a's first
  // completion removes b while b is the next ready task.
  TaskId b = kInvalidTask;
  const TaskId a = cpu.add_task(make_task(millis(10), millis(2)), [&](const JobInfo& j) {
    log(j);
    if (j.index == 0) cpu.remove_task(b);
  });
  b = cpu.add_task(make_task(millis(20), millis(3)), log);
  const TaskId c = cpu.add_task(make_task(millis(40), millis(1)), log);
  cpu.start(TimePoint::zero());
  sim.run_until(TimePoint::zero() + millis(30));
  EXPECT_FALSE(cpu.has_task(b));
  ASSERT_EQ(finishes.size(), 4u);
  EXPECT_EQ(finishes[0], std::make_pair(a, TimePoint::zero() + millis(2)));
  EXPECT_EQ(finishes[1], std::make_pair(c, TimePoint::zero() + millis(3)));
  EXPECT_EQ(finishes[2], std::make_pair(a, TimePoint::zero() + millis(12)));
  EXPECT_EQ(finishes[3], std::make_pair(a, TimePoint::zero() + millis(22)));
}

TEST(Cpu, AddTaskWhileRunning) {
  sim::Simulator sim;
  Cpu cpu(sim, Policy::kRateMonotonic);
  cpu.start(TimePoint::zero());
  sim.run_until(TimePoint::zero() + millis(5));
  int count = 0;
  cpu.add_task(make_task(millis(10), millis(1)), [&](const JobInfo&) { ++count; });
  sim.run_until(TimePoint::zero() + millis(50));
  EXPECT_GE(count, 4);
}

TEST(Cpu, PhaseVarianceZeroWhenAlone) {
  sim::Simulator sim;
  Cpu cpu(sim, Policy::kRateMonotonic);
  const TaskId id = cpu.add_task(make_task(millis(10), millis(2)), nullptr);
  cpu.start(TimePoint::zero());
  sim.run_until(TimePoint::zero() + seconds(1));
  EXPECT_EQ(cpu.tracker(id).phase_variance(), Duration::zero());
}

TEST(Cpu, PhaseVarianceRespectsUniversalBound) {
  sim::Simulator sim;
  Cpu cpu(sim, Policy::kRateMonotonic);
  std::vector<TaskId> ids;
  ids.push_back(cpu.add_task(make_task(millis(7), millis(2)), nullptr));
  ids.push_back(cpu.add_task(make_task(millis(13), millis(3)), nullptr));
  ids.push_back(cpu.add_task(make_task(millis(29), millis(5)), nullptr));
  cpu.start(TimePoint::zero());
  sim.run_until(TimePoint::zero() + seconds(5));
  for (TaskId id : ids) {
    const auto& spec = cpu.spec(id);
    EXPECT_LE(cpu.tracker(id).phase_variance(),
              phase_variance_bound_universal(spec))
        << "task " << spec.id;
  }
}

TEST(Cpu, DcsHarmonicScheduleHasZeroPhaseVariance) {
  sim::Simulator sim;
  Cpu cpu(sim, Policy::kDcsSr);
  std::vector<TaskId> ids;
  // Σ e/p = 0.2 + 0.12 + 0.05 = 0.37 ≤ 3(2^{1/3}-1) ≈ 0.78: Theorem 3 applies.
  ids.push_back(cpu.add_task(make_task(millis(10), millis(2)), nullptr));
  ids.push_back(cpu.add_task(make_task(millis(25), millis(3)), nullptr));
  ids.push_back(cpu.add_task(make_task(millis(60), millis(3)), nullptr));
  cpu.start(TimePoint::zero());
  sim.run_until(TimePoint::zero() + seconds(5));
  for (TaskId id : ids) {
    EXPECT_EQ(cpu.tracker(id).phase_variance(), Duration::zero()) << id;
    EXPECT_LE(cpu.effective_period(id), cpu.spec(id).period);
  }
}

TEST(Cpu, StopHaltsExecution) {
  sim::Simulator sim;
  Cpu cpu(sim, Policy::kRateMonotonic);
  int count = 0;
  cpu.add_task(make_task(millis(10), millis(1)), [&](const JobInfo&) { ++count; });
  cpu.start(TimePoint::zero());
  sim.run_until(TimePoint::zero() + millis(25));
  cpu.stop();
  const int at_stop = count;
  sim.run_until(TimePoint::zero() + millis(200));
  EXPECT_EQ(count, at_stop);
}

}  // namespace
}  // namespace rtpb::sched
