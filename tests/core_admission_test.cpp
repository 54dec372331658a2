#include "core/admission.hpp"

#include <gtest/gtest.h>

#include "sched/theory.hpp"

namespace rtpb::core {
namespace {

ObjectSpec spec(ObjectId id, Duration p = millis(10), Duration delta_p = millis(20),
                Duration delta_b = millis(100)) {
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

ServiceConfig default_config() { return {}; }

TEST(Admission, AcceptsWellFormedObject) {
  AdmissionController ac(default_config(), millis(2));
  const auto r = ac.admit(spec(1));
  ASSERT_TRUE(r.ok());
  // window = 80ms, ell = 2ms, slack 2 -> r = 39ms
  EXPECT_EQ(r.value().update_period, millis(39));
  EXPECT_EQ(ac.admitted_count(), 1u);
}

TEST(Admission, RejectsDuplicate) {
  AdmissionController ac(default_config(), millis(2));
  ASSERT_TRUE(ac.admit(spec(1)).ok());
  const auto r = ac.admit(spec(1));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), AdmissionError::kDuplicate);
}

TEST(Admission, RejectsMalformedSpec) {
  AdmissionController ac(default_config(), millis(2));
  ObjectSpec bad = spec(1);
  bad.client_period = Duration::zero();
  const auto r = ac.admit(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), AdmissionError::kInvalidSpec);
}

TEST(Admission, RejectsClientPeriodExceedingDeltaPrimary) {
  // Paper §4.2 check (1): p_i must be ≤ δ_iP.
  AdmissionController ac(default_config(), millis(2));
  const auto r = ac.admit(spec(1, /*p=*/millis(25), /*delta_p=*/millis(20)));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), AdmissionError::kPeriodExceedsDelta);
}

TEST(Admission, RejectsWindowSmallerThanLinkDelay) {
  // Paper §4.2 check (2): δ_i = δ_iB − δ_iP must exceed ℓ.
  AdmissionController ac(default_config(), millis(50));
  const auto r = ac.admit(spec(1, millis(10), millis(20), millis(60)));  // window 40 < ell 50
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), AdmissionError::kWindowTooSmall);
}

TEST(Admission, RejectsWhenUpdateTasksUnschedulable) {
  // Saturate the CPU with heavy client tasks until RM analysis fails.
  AdmissionController ac(default_config(), millis(1));
  ObjectId id = 1;
  bool saw_rejection = false;
  for (; id < 200; ++id) {
    ObjectSpec s = spec(id);
    s.client_exec = millis(4);   // 40% utilisation each
    s.update_exec = millis(2);
    const auto r = ac.admit(s);
    if (!r.ok()) {
      EXPECT_EQ(r.code(), AdmissionError::kUnschedulable);
      saw_rejection = true;
      break;
    }
  }
  EXPECT_TRUE(saw_rejection);
  EXPECT_GE(ac.admitted_count(), 1u);
}

TEST(Admission, DisabledAdmissionAcceptsEverything) {
  ServiceConfig config;
  config.admission_control_enabled = false;
  AdmissionController ac(config, millis(1));
  for (ObjectId id = 1; id <= 100; ++id) {
    ObjectSpec s = spec(id);
    s.client_exec = millis(4);
    EXPECT_TRUE(ac.admit(s).ok()) << id;
  }
  EXPECT_EQ(ac.admitted_count(), 100u);
}

TEST(Admission, UpdatePeriodFollowsWindowFormula) {
  // r_i = (δ_i − ℓ) / slack — §4.3 with the paper's 2x slack.
  const Duration ell = millis(3);
  AdmissionController ac(default_config(), ell);
  const auto r = ac.admit(spec(1, millis(10), millis(20), millis(120)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().update_period,
            sched::theory::update_period(millis(100), ell, 2));
}

TEST(Admission, SlackFactorOneSendsAtFullWindow) {
  ServiceConfig config;
  config.slack_factor = 1;
  AdmissionController ac(config, millis(2));
  const auto r = ac.admit(spec(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().update_period, millis(78));  // (100-20) - 2
}

TEST(Admission, RemoveFreesCapacity) {
  AdmissionController ac(default_config(), millis(1));
  ObjectSpec heavy = spec(1);
  heavy.client_exec = millis(5);
  ASSERT_TRUE(ac.admit(heavy).ok());
  ac.remove(1);
  EXPECT_EQ(ac.admitted_count(), 0u);
  heavy.id = 2;
  EXPECT_TRUE(ac.admit(heavy).ok());
}

TEST(Admission, InterObjectConstraintRequiresKnownObjects) {
  AdmissionController ac(default_config(), millis(1));
  ASSERT_TRUE(ac.admit(spec(1)).ok());
  const auto s = ac.add_constraint({1, 99, millis(50)});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), AdmissionError::kUnknownObject);
}

TEST(Admission, InterObjectConstraintRejectsSlowClients) {
  // §3: both client periods must be within δ_ij.
  AdmissionController ac(default_config(), millis(1));
  ASSERT_TRUE(ac.admit(spec(1, millis(10))).ok());
  ASSERT_TRUE(ac.admit(spec(2, millis(18))).ok());
  const auto s = ac.add_constraint({1, 2, millis(15)});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), AdmissionError::kInterObjectViolation);
}

TEST(Admission, InterObjectConstraintTightensUpdatePeriods) {
  AdmissionController ac(default_config(), millis(2));
  ASSERT_TRUE(ac.admit(spec(1)).ok());
  ASSERT_TRUE(ac.admit(spec(2)).ok());
  const Duration before = ac.update_period(1);
  ASSERT_GT(before, millis(15));
  ASSERT_TRUE(ac.add_constraint({1, 2, millis(15)}).ok());
  EXPECT_EQ(ac.update_period(1), millis(15));
  EXPECT_EQ(ac.update_period(2), millis(15));
}

TEST(Admission, InterObjectConstraintLooserThanWindowChangesNothing) {
  AdmissionController ac(default_config(), millis(2));
  ASSERT_TRUE(ac.admit(spec(1)).ok());
  ASSERT_TRUE(ac.admit(spec(2)).ok());
  const Duration before = ac.update_period(1);
  ASSERT_TRUE(ac.add_constraint({1, 2, millis(500)}).ok());
  EXPECT_EQ(ac.update_period(1), before);
}

TEST(Admission, CompressedSchedulingUsesSpareCapacity) {
  ServiceConfig config;
  config.update_scheduling = UpdateScheduling::kCompressed;
  config.compressed_target_utilization = 0.8;
  AdmissionController ac(config, millis(2));
  ASSERT_TRUE(ac.admit(spec(1)).ok());
  // One object, client util = 0.02: update task gets ~0.78 utilisation:
  // r ≈ e'/0.78 ≈ 0.256ms — far more often than the window-derived 39ms.
  EXPECT_LT(ac.update_period(1), millis(1));
  const Duration solo = ac.update_period(1);
  // Admitting more objects shares the spare capacity: periods grow.
  ASSERT_TRUE(ac.admit(spec(2)).ok());
  EXPECT_GT(ac.update_period(1), solo);
}

TEST(Admission, CompressedPeriodIndependentOfWindow) {
  ServiceConfig config;
  config.update_scheduling = UpdateScheduling::kCompressed;
  AdmissionController ac1(config, millis(2));
  AdmissionController ac2(config, millis(2));
  ASSERT_TRUE(ac1.admit(spec(1, millis(10), millis(20), millis(60))).ok());   // window 40
  ASSERT_TRUE(ac2.admit(spec(1, millis(10), millis(20), millis(400))).ok());  // window 380
  EXPECT_EQ(ac1.update_period(1), ac2.update_period(1));
}

TEST(Admission, RemoveRestoresConstraintPartnerPeriod) {
  // Regression: remove() used to erase the constraint but leave the
  // surviving partner pinned at the tightened period forever — a
  // permanent capacity leak (the partner kept transmitting at the δ_ij
  // rate and kept charging the RM aggregate for it).
  AdmissionController ac(default_config(), millis(2));
  ASSERT_TRUE(ac.admit(spec(1)).ok());
  ASSERT_TRUE(ac.admit(spec(2)).ok());
  const Duration baseline = ac.update_period(1);  // 39ms
  ASSERT_TRUE(ac.add_constraint({1, 2, millis(15)}).ok());
  ASSERT_EQ(ac.update_period(1), millis(15));
  const double tightened_util = ac.total_utilization();

  ac.remove(2);
  EXPECT_EQ(ac.update_period(1), baseline)
      << "partner stayed pinned at the removed object's delta_ij";
  EXPECT_TRUE(ac.constraints().empty());
  EXPECT_LT(ac.total_utilization(), tightened_util);
}

TEST(Admission, RemoveRestoresOnlyConstraintsOfRemovedObject) {
  // A partner bound by several constraints falls back to the tightest
  // *remaining* one, not all the way to its window baseline.
  AdmissionController ac(default_config(), millis(2));
  ASSERT_TRUE(ac.admit(spec(1)).ok());
  ASSERT_TRUE(ac.admit(spec(2)).ok());
  ASSERT_TRUE(ac.admit(spec(3)).ok());
  ASSERT_TRUE(ac.add_constraint({1, 2, millis(15)}).ok());
  ASSERT_TRUE(ac.add_constraint({1, 3, millis(25)}).ok());
  ASSERT_EQ(ac.update_period(1), millis(15));

  ac.remove(2);
  EXPECT_EQ(ac.update_period(1), millis(25));
  EXPECT_EQ(ac.update_period(3), millis(25));
  ASSERT_EQ(ac.constraints().size(), 1u);
}

TEST(Admission, LinkDelayGrowthKeepsAdmittedBaselinesFrozen) {
  // Regression: set_link_delay_bound() documents that admitted objects
  // keep the ℓ they were negotiated under, but the schedulability check
  // used to re-derive *every* admitted baseline at the current ℓ — after
  // ℓ grew close to the admitted windows, the re-derived periods became
  // tiny, their utilisation exploded, and perfectly schedulable new
  // registrations were spuriously rejected.
  AdmissionController ac(default_config(), millis(2));
  for (ObjectId id = 1; id <= 4; ++id) ASSERT_TRUE(ac.admit(spec(id)).ok());
  ASSERT_EQ(ac.update_period(1), millis(39));

  ac.set_link_delay_bound(millis(79));  // admitted windows are 80ms

  // Already-admitted objects keep their negotiated periods...
  EXPECT_EQ(ac.update_period(1), millis(39));
  // ...and enter the RM aggregate at those periods, so a roomy candidate
  // still fits (re-deriving the old baselines at ℓ=79ms would charge
  // 0.2ms/0.5ms = 40% per object and reject everything).
  const auto roomy = ac.admit(spec(10, millis(10), millis(20), millis(1020)));
  EXPECT_TRUE(roomy.ok());

  // New admissions ARE judged against the new ℓ: same window as the old
  // objects now leaves only (80 − 79)/2 = 0.5ms.
  const auto tight = ac.admit(spec(11));
  ASSERT_TRUE(tight.ok());
  EXPECT_EQ(tight.value().update_period, micros(500));
}

TEST(Admission, CompressedPeriodNeverExceedsWindowDerivedBound) {
  // Regression: when client load ate the compressed-mode spare capacity
  // (the 5% floor split eight ways), the equal-share formula produced
  // periods LONGER than the window-derived §4.3 period the object was
  // admitted against — the backup could drift past δ_i even though
  // admission had promised the window.  Compressed scheduling may only
  // send more often than the baseline, never less.
  ServiceConfig config;
  config.update_scheduling = UpdateScheduling::kCompressed;
  config.compressed_target_utilization = 0.5;
  AdmissionController ac(config, millis(2));
  for (ObjectId id = 1; id <= 8; ++id) {
    ObjectSpec s = spec(id);
    s.client_exec = micros(600);  // 8 × 6% client load swamps the target
    s.update_exec = micros(500);  // uncapped share would be 80ms
    ASSERT_TRUE(ac.admit(s).ok()) << id;
  }
  for (ObjectId id = 1; id <= 8; ++id) {
    EXPECT_LE(ac.update_period(id), millis(39)) << id;  // (80 − 2)/2
  }
}

TEST(Admission, TotalUtilizationAccountsForBothTaskKinds) {
  AdmissionController ac(default_config(), millis(2));
  ASSERT_TRUE(ac.admit(spec(1)).ok());
  const ObjectSpec s = spec(1);
  const double expected = s.client_exec.ratio(s.client_period) +
                          s.update_exec.ratio(ac.update_period(1));
  EXPECT_NEAR(ac.total_utilization(), expected, 1e-12);
}

}  // namespace
}  // namespace rtpb::core
