#include "core/metrics.hpp"

#include <gtest/gtest.h>

namespace rtpb::core {
namespace {

TimePoint at(std::int64_t ms) { return TimePoint::zero() + millis(ms); }

TEST(Metrics, ResponseTimes) {
  Metrics m;
  m.record_response(millis(2));
  m.record_response(millis(4));
  EXPECT_EQ(m.response_times().count(), 2u);
  EXPECT_DOUBLE_EQ(m.response_times().mean(), 3.0);
}

TEST(Metrics, DistanceIsPrimaryMinusBackupOrigin) {
  Metrics m;
  m.track_object(1, millis(50));
  m.on_primary_write(1, at(10));
  m.on_backup_apply(1, at(10), at(12));
  // Primary advances twice without the backup catching up.
  m.on_primary_write(1, at(20));
  m.on_primary_write(1, at(30));
  EXPECT_EQ(m.max_distance(1), millis(20));  // 30 - 10
  EXPECT_DOUBLE_EQ(m.average_max_distance_ms(), 20.0);
}

TEST(Metrics, DistanceDropsWhenBackupCatchesUp) {
  Metrics m;
  m.track_object(1, millis(500));
  m.on_primary_write(1, at(10));
  m.on_backup_apply(1, at(10), at(12));
  m.on_primary_write(1, at(100));           // distance 90
  m.on_backup_apply(1, at(100), at(104));   // distance back to 0
  m.on_primary_write(1, at(110));           // distance 10
  EXPECT_EQ(m.max_distance(1), millis(90));
}

TEST(Metrics, DistanceIgnoredUntilBothSidesSeen) {
  Metrics m;
  m.track_object(1, millis(50));
  m.on_primary_write(1, at(100));
  EXPECT_EQ(m.max_distance(1), Duration::zero());
  // finish() charges objects whose backup never applied anything.
  m.finish(at(200));
  EXPECT_GT(m.max_distance(1), Duration::zero());
}

TEST(Metrics, ViolationOpensWhenDistanceExceedsWindow) {
  Metrics m;
  m.track_object(1, millis(15));
  m.on_primary_write(1, at(10));
  m.on_backup_apply(1, at(10), at(11));
  m.on_primary_write(1, at(30));            // distance 20 > 15: opens at 30
  EXPECT_TRUE(m.in_violation(1));
  m.on_backup_apply(1, at(30), at(34));     // closes at 34
  EXPECT_FALSE(m.in_violation(1));
  m.finish(at(40));
  EXPECT_EQ(m.inconsistency_intervals(), 1u);
  EXPECT_EQ(m.total_inconsistency(), millis(4));
  EXPECT_DOUBLE_EQ(m.mean_inconsistency_duration_ms(), 4.0);
}

TEST(Metrics, ViolationStillOpenAtFinishIsCounted) {
  Metrics m;
  m.track_object(1, millis(5));
  m.on_primary_write(1, at(10));
  m.on_backup_apply(1, at(10), at(11));
  m.on_primary_write(1, at(20));  // distance 10 > 5: opens
  m.finish(at(50));
  EXPECT_EQ(m.inconsistency_intervals(), 1u);
  EXPECT_EQ(m.total_inconsistency(), millis(30));
}

TEST(Metrics, NoViolationWhenDistanceStaysInWindow) {
  Metrics m;
  m.track_object(1, millis(50));
  for (int k = 1; k <= 20; ++k) {
    m.on_primary_write(1, at(10 * k));
    m.on_backup_apply(1, at(10 * k), at(10 * k + 5));
  }
  m.finish(at(250));
  EXPECT_EQ(m.inconsistency_intervals(), 0u);
  EXPECT_EQ(m.max_distance(1), millis(10));  // one write-period of staleness
}

TEST(Metrics, AverageMaxDistanceAcrossObjects) {
  Metrics m;
  m.track_object(1, millis(100));
  m.track_object(2, millis(100));
  for (ObjectId id : {1u, 2u}) {
    m.on_primary_write(id, at(10));
    m.on_backup_apply(id, at(10), at(11));
  }
  m.on_primary_write(1, at(20));  // distance 10
  m.on_primary_write(2, at(40));  // distance 30
  EXPECT_DOUBLE_EQ(m.average_max_distance_ms(), 20.0);
}

TEST(Metrics, ResetStatisticsClearsHistoryButKeepsTracking) {
  Metrics m;
  m.track_object(1, millis(500));
  m.record_response(millis(9));
  m.on_primary_write(1, at(10));
  m.on_backup_apply(1, at(10), at(11));
  m.on_primary_write(1, at(40));
  m.reset_statistics();
  EXPECT_EQ(m.response_times().count(), 0u);
  EXPECT_EQ(m.max_distance(1), Duration::zero());
  m.on_primary_write(1, at(50));
  EXPECT_EQ(m.max_distance(1), millis(40));  // 50 - 10: state survived reset
}

TEST(Metrics, UntrackedObjectIgnored) {
  Metrics m;
  m.on_primary_write(42, at(10));  // no crash, no effect
  EXPECT_DOUBLE_EQ(m.average_max_distance_ms(), 0.0);
}

TEST(Metrics, StaleRetransmissionDoesNotRegressBackupOrigin) {
  Metrics m;
  m.track_object(1, millis(500));
  m.on_primary_write(1, at(10));
  m.on_backup_apply(1, at(10), at(12));
  // A late duplicate with an older origin must not move T_B backwards.
  m.on_backup_apply(1, at(5), at(13));
  m.on_primary_write(1, at(20));
  EXPECT_EQ(m.max_distance(1), millis(10));
}

}  // namespace
}  // namespace rtpb::core
