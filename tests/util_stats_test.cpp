#include "util/stats.hpp"

#include <gtest/gtest.h>

namespace rtpb {
namespace {

TEST(RunningStats, Moments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138089935, 1e-6);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = static_cast<double>(i * i % 17);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SampleSet, Quantiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(SampleSet, SingleAndEmpty) {
  SampleSet s;
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 42.0);
}

TEST(SampleSet, AddDurationConvertsToMillis) {
  SampleSet s;
  s.add(millis(3));
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(SampleSetQuantile, ExactAtSampleRanks) {
  // q = k/(n−1) returns exactly the k-th sorted sample.
  SampleSet s;
  for (double v : {5.0, 1.0, 9.0, 3.0, 7.0}) s.add(v);  // n = 5, ranks q=k/4
  EXPECT_EQ(s.quantile(0.0), 1.0);
  EXPECT_EQ(s.quantile(0.25), 3.0);
  EXPECT_EQ(s.quantile(0.5), 5.0);
  EXPECT_EQ(s.quantile(0.75), 7.0);
  EXPECT_EQ(s.quantile(1.0), 9.0);
}

TEST(IntervalRecorder, BasicOpenClose) {
  IntervalRecorder r;
  r.open(TimePoint{100});
  r.close(TimePoint{300});
  r.open(TimePoint{500});
  r.close(TimePoint{600});
  EXPECT_EQ(r.interval_count(), 2u);
  EXPECT_EQ(r.total(), Duration{300});
  EXPECT_FALSE(r.is_open());
}

TEST(IntervalRecorder, RedundantTransitionsIgnored) {
  IntervalRecorder r;
  r.close(TimePoint{50});  // not open: no-op
  r.open(TimePoint{100});
  r.open(TimePoint{150});  // already open: keeps original start
  r.close(TimePoint{200});
  EXPECT_EQ(r.interval_count(), 1u);
  EXPECT_EQ(r.total(), Duration{100});
}

TEST(IntervalRecorder, FinishClosesOpenInterval) {
  IntervalRecorder r;
  r.open(TimePoint{10});
  r.finish(TimePoint{40});
  EXPECT_EQ(r.interval_count(), 1u);
  EXPECT_EQ(r.total(), Duration{30});
}

}  // namespace
}  // namespace rtpb
