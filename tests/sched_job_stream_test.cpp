// Pins the exact job stream every scheduling policy produces on seeded
// random workloads: periodic tasks with random periods, deadlines and
// phases, tasks added and removed while the CPU runs, and background
// one-shot jobs.  Each policy's full JobInfo sequence (task, index,
// release, start, finish, miss) is folded into one FNV-1a digest.
//
// The constants were recorded from the linear-scan dispatcher.  Any change
// to how the CPU picks, preempts or retires jobs that moves a single job
// shows up here, under whichever policy it affects.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sched/cpu.hpp"
#include "util/rng.hpp"

namespace rtpb::sched {
namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void mix(const JobInfo& j) {
    mix(j.task);
    mix(j.index);
    mix(static_cast<std::uint64_t>(j.release.nanos()));
    mix(static_cast<std::uint64_t>(j.start.nanos()));
    mix(static_cast<std::uint64_t>(j.finish.nanos()));
    mix(j.deadline_missed ? 1U : 0U);
  }
};

TaskSpec random_task(Rng& rng) {
  const std::int64_t period_us = rng.uniform(1'000, 20'000);
  TaskSpec t;
  t.period = micros(period_us);
  t.wcet = micros(rng.uniform(10, period_us / 6));
  if (rng.bernoulli(0.3)) t.deadline = micros(rng.uniform(period_us / 2, period_us));
  t.phase = micros(rng.uniform(0, period_us));
  return t;
}

/// Runs one seeded workload under `policy`, folding every completed job
/// into `fnv`.  Returns the number of jobs folded.
std::size_t fold_job_stream(Policy policy, std::uint64_t seed, Fnv& fnv) {
  Rng rng(seed);
  sim::Simulator sim;
  Cpu cpu(sim, policy);
  std::size_t jobs = 0;
  const auto record = [&](const JobInfo& j) {
    fnv.mix(j);
    ++jobs;
  };

  std::vector<TaskId> live;
  for (int i = 0; i < 10; ++i) live.push_back(cpu.add_task(random_task(rng), record));
  cpu.start(TimePoint::zero());

  // Mutations land at random instants, often while a job holds the CPU.
  // Each event captures its mutation's index: a TaskSpec is too large for
  // the kernel's inline closure storage.
  struct Mutation {
    std::int64_t op;
    TaskSpec spec;
    std::size_t pick;
    Duration exec;
  };
  std::vector<Mutation> mutations;
  for (std::size_t k = 0; k < 40; ++k) {
    const TimePoint at = TimePoint::zero() + micros(rng.uniform(0, 1'000'000));
    const std::int64_t op = rng.uniform(0, 2);
    const TaskSpec spec = random_task(rng);
    const auto pick = static_cast<std::size_t>(rng.uniform(0, 1'000));
    const Duration exec = micros(rng.uniform(50, 3'000));
    mutations.push_back(Mutation{op, spec, pick, exec});
    sim.schedule_at(at, [&, k] {
      const Mutation& m = mutations[k];
      if (m.op == 0) {
        live.push_back(cpu.add_task(m.spec, record));
      } else if (m.op == 1 && !live.empty()) {
        const std::size_t victim = m.pick % live.size();
        cpu.remove_task(live[victim]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        cpu.submit_job("bg", m.exec, record);
      }
    });
  }
  sim.run_until(TimePoint::zero() + millis(1'500));
  return jobs;
}

std::uint64_t job_stream_digest(Policy policy) {
  Fnv fnv;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    EXPECT_GT(fold_job_stream(policy, seed, fnv), 1'000u)
        << policy_name(policy) << " seed " << seed;
  }
  return fnv.h;
}

TEST(CpuJobStream, EdfIsPinned) {
  EXPECT_EQ(job_stream_digest(Policy::kEdf), 0xa45714f8f3b30902ULL);
}

TEST(CpuJobStream, RateMonotonicIsPinned) {
  EXPECT_EQ(job_stream_digest(Policy::kRateMonotonic), 0xb2b0a660470a7322ULL);
}

TEST(CpuJobStream, DcsSrIsPinned) {
  EXPECT_EQ(job_stream_digest(Policy::kDcsSr), 0xd0ba49db6e7d7582ULL);
}

TEST(CpuJobStream, FifoIsPinned) {
  EXPECT_EQ(job_stream_digest(Policy::kFifo), 0x8e1928f8483f4e1cULL);
}

/// One task's backlog outgrows its inline room.  Under FIFO a 64 ms job
/// released every 100 ms holds the CPU while a 1 ms task releases behind
/// it, so that task's backlog passes 64 jobs, wraps around its buffer as
/// it drains and refills, and empties before the next burst.  Jobs must
/// leave in release order, and the whole job stream (every job's release,
/// start and finish) and the response times are pinned.
TEST(CpuJobStream, BacklogPastItsInlineRoomKeepsFifoOrder) {
  sim::Simulator sim;
  Cpu cpu(sim, Policy::kFifo);
  TaskSpec hog;
  hog.period = millis(100);
  hog.wcet = millis(64);
  TaskSpec fast;
  fast.period = millis(1);
  fast.wcet = micros(200);
  Fnv fnv;
  std::uint64_t fast_jobs = 0;
  Duration longest{};
  Duration total_response{};
  std::uint64_t empty_after_a_burst = 0;  // fast jobs that found no backlog
  (void)cpu.add_task(hog, [&](const JobInfo& j) { fnv.mix(j); });
  (void)cpu.add_task(fast, [&](const JobInfo& j) {
    fnv.mix(j);
    EXPECT_EQ(j.index, fast_jobs) << "out of release order";
    ++fast_jobs;
    const Duration response = j.finish - j.release;
    longest = std::max(longest, response);
    total_response += response;
    if (longest >= millis(64) && response == fast.wcet) ++empty_after_a_burst;
  });
  cpu.start(TimePoint::zero());
  sim.run_until(TimePoint::zero() + seconds(1));

  // A job that waited 64 ms had 64 jobs released behind it.
  EXPECT_GE(longest, millis(64));
  EXPECT_GT(empty_after_a_burst, 0u);
  EXPECT_EQ(fast_jobs, 1000u);
  EXPECT_EQ(longest, micros(64'200));
  EXPECT_EQ(total_response, millis(26'120));
  EXPECT_EQ(fnv.h, 0x48188cead1e434acULL);
}

}  // namespace
}  // namespace rtpb::sched
