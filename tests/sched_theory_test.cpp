// Unit tests of the paper's lemma/theorem predicates, plus empirical
// property tests: random task sets run on the simulated CPU must respect
// the phase-variance bounds the theorems rely on.
#include "sched/theory.hpp"

#include <gtest/gtest.h>

#include "sched/analysis.hpp"
#include "sched/cpu.hpp"
#include "util/rng.hpp"

namespace rtpb::sched {
namespace {

using namespace theory;

TEST(Theory, Lemma1Boundary) {
  // p ≤ (δ + e)/2.
  EXPECT_TRUE(lemma1_primary(millis(10), millis(2), millis(18)));   // 10 == (18+2)/2
  EXPECT_FALSE(lemma1_primary(millis(11), millis(2), millis(18)));
}

TEST(Theory, Theorem1Boundary) {
  // p ≤ δ − v.
  EXPECT_TRUE(theorem1_primary(millis(15), millis(5), millis(20)));
  EXPECT_FALSE(theorem1_primary(millis(16), millis(5), millis(20)));
  EXPECT_EQ(theorem1_max_period(millis(20), millis(5)), millis(15));
}

TEST(Theory, Theorem1RelaxesLemma1) {
  // With zero phase variance, Theorem 1 admits periods up to δ — roughly
  // double what Lemma 1's sufficient condition allows.
  const Duration delta = millis(20), e = millis(1);
  const Duration lemma_max = (delta + e) / 2;
  EXPECT_TRUE(theorem1_primary(delta, Duration::zero(), delta));
  EXPECT_FALSE(lemma1_primary(delta, e, delta));
  EXPECT_LT(lemma_max, delta);
}

TEST(Theory, Lemma2Boundary) {
  // r ≤ (δB + e + e' − ℓ)/2 − p.
  const Duration p = millis(10), e = millis(1), e2 = millis(1), ell = millis(2);
  const Duration delta_b = millis(60);
  // (60+1+1-2)/2 - 10 = 20.
  EXPECT_TRUE(lemma2_backup(millis(20), p, e, e2, ell, delta_b));
  EXPECT_FALSE(lemma2_backup(millis(21), p, e, e2, ell, delta_b));
}

TEST(Theory, Theorem4Boundary) {
  // r ≤ δB − v' − p − v − ℓ.
  const Duration p = millis(10), v = millis(2), vp = millis(1), ell = millis(2);
  const Duration delta_b = millis(60);
  EXPECT_TRUE(theorem4_backup(millis(45), p, v, vp, ell, delta_b));
  EXPECT_FALSE(theorem4_backup(millis(46), p, v, vp, ell, delta_b));
  EXPECT_EQ(theorem4_max_period(p, v, vp, ell, delta_b), millis(45));
}

TEST(Theory, Theorem5IsTheorem4WithMaximalPAndZeroVPrime) {
  // With v' = 0 and p = δP − v, Theorem 4 collapses to r ≤ (δB − δP) − ℓ.
  const Duration delta_p = millis(20), delta_b = millis(60), ell = millis(2);
  const Duration v = millis(3);
  const Duration p = theorem1_max_period(delta_p, v);
  const Duration t4 = theorem4_max_period(p, v, Duration::zero(), ell, delta_b);
  EXPECT_EQ(t4, (delta_b - delta_p) - ell);
  EXPECT_TRUE(theorem5_backup(t4, delta_p, delta_b, ell));
  EXPECT_FALSE(theorem5_backup(t4 + nanos(1), delta_p, delta_b, ell));
}

TEST(Theory, ConsistencyWindowAndUpdatePeriod) {
  EXPECT_EQ(consistency_window(millis(20), millis(100)), millis(80));
  EXPECT_EQ(update_period(millis(80), millis(2), 2), millis(39));
  EXPECT_EQ(update_period(millis(80), millis(2), 1), millis(78));
}

TEST(Theory, Lemma3AndTheorem6) {
  EXPECT_TRUE(lemma3_task(millis(10), millis(2), millis(18)));
  EXPECT_FALSE(lemma3_task(millis(11), millis(2), millis(18)));
  EXPECT_TRUE(theorem6_task(millis(18), Duration::zero(), millis(18)));
  EXPECT_FALSE(theorem6_task(millis(19), Duration::zero(), millis(18)));
  EXPECT_TRUE(theorem6_pair(millis(10), millis(1), millis(12), millis(2), millis(15)));
  EXPECT_FALSE(theorem6_pair(millis(10), millis(1), millis(14), millis(2), millis(15)));
}

// ---------------------------------------------------------------------------
// Empirical properties on the simulated CPU.
// ---------------------------------------------------------------------------

// gtest prints this parameter's raw bytes, and ctest puts them in the
// test name.  `zero` fills what would be padding, so no stack garbage
// enters the name and it reads the same in every build.
struct SweepParam {
  Policy policy;
  std::uint32_t zero = 0;
  std::uint64_t seed;
  std::size_t n_tasks;
  double target_utilization;
};

class PhaseVarianceSweep : public ::testing::TestWithParam<SweepParam> {};

TaskSet random_task_set(Rng& rng, std::size_t n, double target_util) {
  TaskSet set;
  const double per_task = target_util / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    TaskSpec t;
    t.id = static_cast<TaskId>(i + 1);
    t.period = millis(rng.uniform(8, 120));
    t.wcet = std::max(micros(100), t.period.scaled(per_task));
    set.push_back(t);
  }
  return set;
}

TEST_P(PhaseVarianceSweep, UniversalBoundHolds) {
  const SweepParam param = GetParam();
  Rng rng(param.seed);
  TaskSet set = random_task_set(rng, param.n_tasks, param.target_utilization);
  // Only run schedulable sets: the bound's derivation assumes deadlines met.
  if (param.policy == Policy::kRateMonotonic && !rm_exact_test(set)) GTEST_SKIP();
  if (param.policy == Policy::kEdf && !edf_test(set)) GTEST_SKIP();
  if (param.policy == Policy::kDcsSr && !dcs_specialize(set).feasible()) GTEST_SKIP();

  sim::Simulator sim(param.seed);
  Cpu cpu(sim, param.policy);
  std::vector<TaskId> ids;
  for (const auto& t : set) {
    TaskSpec copy = t;
    copy.id = kInvalidTask;  // Cpu assigns
    ids.push_back(cpu.add_task(copy, nullptr));
  }
  cpu.start(TimePoint::zero());
  sim.run_until(TimePoint::zero() + seconds(20));

  EXPECT_EQ(cpu.deadline_misses(), 0u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Duration period = cpu.effective_period(ids[i]);
    const Duration bound = period - set[i].wcet;  // Eq. 2.1 on the effective period
    EXPECT_LE(cpu.tracker(ids[i]).phase_variance(), bound)
        << "task " << i << " period " << period.to_string();
  }
}

TEST_P(PhaseVarianceSweep, DcsZeroVariance) {
  const SweepParam param = GetParam();
  if (param.policy != Policy::kDcsSr) GTEST_SKIP();
  Rng rng(param.seed);
  TaskSet set = random_task_set(rng, param.n_tasks, param.target_utilization);
  if (!dcs_zero_variance_condition(set)) GTEST_SKIP();
  if (!dcs_specialize(set).feasible()) GTEST_SKIP();

  sim::Simulator sim(param.seed);
  Cpu cpu(sim, Policy::kDcsSr);
  std::vector<TaskId> ids;
  for (const auto& t : set) {
    TaskSpec copy = t;
    copy.id = kInvalidTask;
    ids.push_back(cpu.add_task(copy, nullptr));
  }
  cpu.start(TimePoint::zero());
  sim.run_until(TimePoint::zero() + seconds(20));
  for (TaskId id : ids) {
    EXPECT_EQ(cpu.tracker(id).phase_variance(), Duration::zero());
  }
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> params;
  std::uint64_t seed = 1000;
  for (Policy policy : {Policy::kEdf, Policy::kRateMonotonic, Policy::kDcsSr}) {
    for (std::size_t n : {2u, 4u, 8u}) {
      for (double util : {0.3, 0.5, 0.65}) {
        params.push_back({.policy = policy, .seed = seed++, .n_tasks = n,
                          .target_utilization = util});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(RandomTaskSets, PhaseVarianceSweep,
                         ::testing::ValuesIn(sweep_params()),
                         [](const ::testing::TestParamInfo<SweepParam>& param_info) {
                           const auto& p = param_info.param;
                           std::string name(policy_name(p.policy));
                           std::erase(name, '-');  // gtest names must be alnum
                           return name + "_n" +
                                  std::to_string(p.n_tasks) + "_u" +
                                  std::to_string(static_cast<int>(p.target_utilization * 100));
                         });

// Theorem 2's EDF bound checked on a deliberately contended set.
TEST(Theory, Theorem2EdfBoundEmpirically) {
  sim::Simulator sim(5);
  Cpu cpu(sim, Policy::kEdf);
  TaskSet set;
  {
    TaskSpec t;
    t.period = millis(10);
    t.wcet = millis(2);
    set.push_back(t);
    t.period = millis(20);
    t.wcet = millis(4);
    set.push_back(t);
    t.period = millis(40);
    t.wcet = millis(4);
    set.push_back(t);
  }
  const double x = total_utilization(set);  // 0.5
  std::vector<TaskId> ids;
  for (auto& t : set) ids.push_back(cpu.add_task(t, nullptr));
  cpu.start(TimePoint::zero());
  sim.run_until(TimePoint::zero() + seconds(30));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Duration bound = phase_variance_bound_edf(set[i], x);
    EXPECT_LE(cpu.tracker(ids[i]).phase_variance(), bound) << i;
  }
}

}  // namespace
}  // namespace rtpb::sched
