// End-to-end checks that the service honours the paper's analytic
// guarantees: the Theorem 5 frontier (sufficiency side), scheduling-policy
// comparisons, and the variance-aware admission extension.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "core/rtpb.hpp"

namespace rtpb::core {
namespace {

ObjectSpec make_spec(ObjectId id, Duration p, Duration delta_p, Duration delta_b) {
  ObjectSpec s;
  s.id = id;
  s.name = "obj" + std::to_string(id);
  s.client_period = p;
  s.client_exec = micros(200);
  s.update_exec = micros(200);
  s.delta_primary = delta_p;
  s.delta_backup = delta_b;
  return s;
}

// gtest prints this parameter's raw bytes, and ctest puts them in the
// test name.  `zero` fills what would be padding, so no stack garbage
// enters the name and it reads the same in every build.
struct FrontierParam {
  double fraction;      ///< r as a fraction of the window frontier
  bool expect_violations;
  std::array<std::uint8_t, 7> zero{};
};

class FrontierSweep : public ::testing::TestWithParam<FrontierParam> {};

TEST_P(FrontierSweep, SufficiencyHolds) {
  // With no loss, r strictly below (window − ℓ − p) must yield zero
  // violations (Theorem 5's machinery, window form); see
  // bench/val_consistency_frontier for the full sweep with the necessity
  // discussion.
  const FrontierParam param = GetParam();
  const Duration window = millis(80);
  const Duration p = millis(10);

  ServiceParams params;
  params.seed = 77;
  params.link.propagation = millis(1);
  params.link.jitter = micros(200);
  // This validates the raw Theorem 5 frontier: graceful degradation would
  // renegotiate the window before the over-frontier cases violate, hiding
  // exactly the effect the necessity side asserts.
  params.config.degradation_enabled = false;

  Duration ell;
  {
    RtpbService probe(params);
    ell = probe.link_delay_bound();
  }
  const Duration frontier = window - ell - p;
  params.config.update_period_override = frontier.scaled(param.fraction);

  RtpbService service(params);
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1, p, millis(20), millis(20) + window)).ok());
  service.warm_up(seconds(1));
  service.run_for(seconds(20));
  service.finish();

  if (param.expect_violations) {
    EXPECT_GT(service.metrics().inconsistency_intervals(), 0u);
  } else {
    EXPECT_EQ(service.metrics().inconsistency_intervals(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AroundFrontier, FrontierSweep,
                         ::testing::Values(FrontierParam{0.5, false},
                                           FrontierParam{0.8, false},
                                           FrontierParam{0.95, false},
                                           FrontierParam{1.5, true},
                                           FrontierParam{2.0, true}),
                         [](const ::testing::TestParamInfo<FrontierParam>& param_info) {
                           return "frac" +
                                  std::to_string(static_cast<int>(param_info.param.fraction * 100));
                         });

class PolicyMatrix : public ::testing::TestWithParam<sched::Policy> {};

TEST_P(PolicyMatrix, ServiceHealthyUnderEveryCpuPolicy) {
  ServiceParams params;
  params.seed = 31;
  params.link.propagation = millis(1);
  params.config.cpu_policy = GetParam();
  RtpbService service(params);
  service.start();
  for (ObjectId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(
        service.register_object(make_spec(id, millis(10), millis(20), millis(120))).ok());
  }
  service.warm_up(seconds(1));
  service.run_for(seconds(5));
  service.finish();
  EXPECT_EQ(service.metrics().inconsistency_intervals(), 0u);
  EXPECT_GT(service.backup().updates_applied(), 100u);
  EXPECT_LT(service.metrics().response_times().quantile(0.99), 10.0);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyMatrix,
                         ::testing::Values(sched::Policy::kFifo, sched::Policy::kRateMonotonic,
                                           sched::Policy::kEdf, sched::Policy::kDcsSr),
                         [](const ::testing::TestParamInfo<sched::Policy>& param_info) {
                           std::string name(sched::policy_name(param_info.param));
                           std::erase(name, '-');
                           return name;
                         });

TEST(ConsistencyGuarantee, VarianceAwareModeNeverLoosensPeriods) {
  for (bool aware : {false, true}) {
    ServiceParams params;
    params.seed = 41;
    params.config.variance_aware_admission = aware;
    RtpbService service(params);
    service.start();
    const auto r = service.register_object(make_spec(1, millis(10), millis(20), millis(100)));
    ASSERT_TRUE(r.ok());
    if (aware) {
      // Cap (δ−ℓ−p+e')/2 < (δ−ℓ)/2 always.
      EXPECT_LT(r.value().update_period, millis(39));
    } else {
      EXPECT_GT(r.value().update_period, millis(38));
    }
  }
}

TEST(ConsistencyGuarantee, InterObjectBoundHoldsOnBackupViews) {
  // Theorem 6 end-to-end: with δ_ij accepted, the backup's two object
  // views never diverge by more than δ_ij (sampled every client period).
  ServiceParams params;
  params.seed = 43;
  RtpbService service(params);
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1, millis(10), millis(20), millis(100))).ok());
  ASSERT_TRUE(service.register_object(make_spec(2, millis(10), millis(20), millis(100))).ok());
  const Duration delta_ij = millis(30);
  ASSERT_TRUE(service.add_constraint({1, 2, delta_ij}).ok());
  service.run_for(seconds(1));

  Duration worst = Duration::zero();
  for (int step = 0; step < 2000; ++step) {
    service.run_for(millis(10));
    const auto a = service.backup().read(1);
    const auto b = service.backup().read(2);
    ASSERT_TRUE(a && b);
    if (a->version == 0 || b->version == 0) continue;
    worst = std::max(worst, (a->origin_timestamp - b->origin_timestamp).abs());
  }
  EXPECT_LE(worst, delta_ij);
}

}  // namespace
}  // namespace rtpb::core
