// Property suite for CPU dispatch: under every policy, the job that gets
// the CPU is the highest-priority ready one.  The check reads only the
// completed JobInfo stream, from outside Cpu: no job may start while a
// different task that the policy ranks above it has a released,
// unfinished job.  A task's rank uses its head job (its oldest unfinished
// one), with ties broken by task id, as the policies define it:
//
//   EDF   head release + relative deadline
//   RM    spec period
//   DCS   specialised (effective) period
//   FIFO  head release
//
// A job released at exactly the instant another starts is not counted as
// waiting: same-instant events may run in either order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "sched/cpu.hpp"
#include "util/rng.hpp"

namespace rtpb::sched {
namespace {

struct TaskFacts {
  Duration relative_deadline{};
  Duration period{};
  Duration effective_period{};
};

TaskSpec random_task(Rng& rng) {
  const std::int64_t period_us = rng.uniform(1'000, 20'000);
  TaskSpec t;
  t.period = micros(period_us);
  t.wcet = micros(rng.uniform(10, period_us / 5));
  if (rng.bernoulli(0.3)) t.deadline = micros(rng.uniform(period_us / 2, period_us));
  t.phase = micros(rng.uniform(0, period_us));
  return t;
}

std::int64_t rank_key(Policy policy, const TaskFacts& t, const JobInfo& head) {
  switch (policy) {
    case Policy::kEdf: return (head.release + t.relative_deadline).nanos();
    case Policy::kRateMonotonic: return t.period.nanos();
    case Policy::kDcsSr: return t.effective_period.nanos();
    case Policy::kFifo: return head.release.nanos();
  }
  return 0;
}

struct Trace {
  std::map<TaskId, TaskFacts> facts;
  std::map<TaskId, std::vector<JobInfo>> jobs;  // per task, in completion (= index) order
};

Trace run_random(Policy policy, std::uint64_t seed) {
  Rng rng(seed);
  sim::Simulator sim;
  Cpu cpu(sim, policy);
  Trace run;
  const auto record = [&](const JobInfo& j) { run.jobs[j.task].push_back(j); };
  const auto note = [&](TaskId id) {
    run.facts[id] = {cpu.spec(id).effective_deadline(), cpu.spec(id).period,
                     cpu.effective_period(id)};
  };

  const auto n = static_cast<int>(rng.uniform(2, 24));
  std::vector<TaskId> ids;
  for (int i = 0; i < n; ++i) ids.push_back(cpu.add_task(random_task(rng), record));
  // Effective periods are final once the set is complete (DCS
  // re-specialises on every add).
  for (TaskId id : ids) note(id);
  cpu.start(TimePoint::zero());

  const auto background = static_cast<int>(rng.uniform(0, 12));
  for (int k = 0; k < background; ++k) {
    const TimePoint at = TimePoint::zero() + micros(rng.uniform(0, 250'000));
    const Duration exec = micros(rng.uniform(50, 5'000));
    sim.schedule_at(at, [&, exec] { note(cpu.submit_job("bg", exec, record)); });
  }
  sim.run_until(TimePoint::zero() + millis(300));
  return run;
}

TEST(CpuDispatchProperty, NoJobStartsWhileAHigherRankedJobWaits) {
  constexpr Policy kPolicies[] = {Policy::kEdf, Policy::kRateMonotonic, Policy::kDcsSr,
                                  Policy::kFifo};
  std::size_t checked = 0;
  for (Policy policy : kPolicies) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      const Trace run = run_random(policy, seed);
      for (const auto& [id, jobs] : run.jobs) {
        const TaskFacts& mine = run.facts.at(id);
        for (const JobInfo& job : jobs) {
          const TimePoint s = job.start;
          const auto my_rank = std::make_tuple(rank_key(policy, mine, job), id);
          for (const auto& [other, other_jobs] : run.jobs) {
            if (other == id) continue;
            // The other task's head at s: its first job not finished by s.
            const auto head = std::partition_point(
                other_jobs.begin(), other_jobs.end(),
                [&](const JobInfo& j) { return j.finish <= s; });
            if (head == other_jobs.end() || head->release >= s) continue;
            const auto other_rank =
                std::make_tuple(rank_key(policy, run.facts.at(other), *head), other);
            ASSERT_FALSE(other_rank < my_rank)
                << policy_name(policy) << " seed " << seed << ": task " << id << " job #"
                << job.index << " started at " << s.nanos() << " ns while task " << other
                << " job #" << head->index << " (released " << head->release.nanos()
                << " ns) outranked it";
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 10'000u);
}

}  // namespace
}  // namespace rtpb::sched
