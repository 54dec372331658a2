// The temporal-slack SLO monitor: trailing-window burn accounting, the
// near-miss thresholds, margins and violation counts, and the core.slo.*
// names export_to() writes.
#include "telemetry/slo.hpp"

#include <gtest/gtest.h>

#include <string>

#include "telemetry/telemetry.hpp"

namespace rtpb::telemetry {
namespace {

using BurnWindow = SloMonitor::BurnWindow;

TimePoint at_ms(std::int64_t ms) { return TimePoint::zero() + millis(ms); }

// An 8 ms window: one 1 ms bucket per slot.
BurnWindow eight_ms_window() {
  BurnWindow w;
  w.reset(millis(8));
  return w;
}

TEST(BurnWindow, EmptyWindowBurnsNothing) {
  const BurnWindow w = eight_ms_window();
  EXPECT_EQ(w.violating_fraction(), 0.0);
}

TEST(BurnWindow, AccumulatesWithinABucket) {
  BurnWindow w;
  w.reset(seconds(1));  // 125 ms buckets
  w.add(at_ms(10), true);
  w.add(at_ms(20), false);
  w.add(at_ms(100), false);
  w.add(at_ms(124), true);
  EXPECT_DOUBLE_EQ(w.violating_fraction(), 0.5);
}

TEST(BurnWindow, RotationClearsOnlyTheSkippedBuckets) {
  BurnWindow w = eight_ms_window();
  for (std::int64_t ms = 0; ms < 8; ++ms) w.add(at_ms(ms), true);
  EXPECT_DOUBLE_EQ(w.violating_fraction(), 1.0);
  // Buckets 8 and 9 are skipped and bucket 10 is new: their slots (those
  // of buckets 0, 1 and 2) are cleared, buckets 3..7 stay.
  w.add(at_ms(10), false);
  EXPECT_DOUBLE_EQ(w.violating_fraction(), 5.0 / 6.0);
}

TEST(BurnWindow, GapOfAWholeWindowClearsEverything) {
  BurnWindow almost = eight_ms_window();
  BurnWindow whole = eight_ms_window();
  for (std::int64_t ms = 0; ms < 8; ++ms) {
    almost.add(at_ms(ms), true);
    whole.add(at_ms(ms), true);
  }
  // Seven buckets on, bucket 7 is still inside the window.
  almost.add(at_ms(14), false);
  EXPECT_DOUBLE_EQ(almost.violating_fraction(), 0.5);
  // kBuckets on, nothing is.
  whole.add(at_ms(7 + static_cast<std::int64_t>(BurnWindow::kBuckets)), false);
  EXPECT_DOUBLE_EQ(whole.violating_fraction(), 0.0);
}

TEST(SloMonitor, NearMissThresholdsAreStrict) {
  SloMonitor slo;
  slo.enable();
  const Duration window = millis(100);
  slo.observe(1, at_ms(1), millis(90), window);               // margin 10 ms: loose only
  slo.observe(2, at_ms(1), millis(90) + nanos(1), window);    // just under 10 ms: both
  slo.observe(3, at_ms(1), millis(75), window);               // margin 25 ms: neither
  slo.observe(4, at_ms(1), millis(75) + nanos(1), window);    // just under 25 ms: loose
  const auto& objects = slo.objects();
  EXPECT_EQ(objects.at(1).near_tight, 0u);
  EXPECT_EQ(objects.at(1).near_loose, 1u);
  EXPECT_EQ(objects.at(2).near_tight, 1u);
  EXPECT_EQ(objects.at(2).near_loose, 1u);
  EXPECT_EQ(objects.at(3).near_tight, 0u);
  EXPECT_EQ(objects.at(3).near_loose, 0u);
  EXPECT_EQ(objects.at(4).near_tight, 0u);
  EXPECT_EQ(objects.at(4).near_loose, 1u);
}

TEST(SloMonitor, TracksMinMarginAndViolations) {
  SloMonitor slo;
  slo.enable();
  const Duration window = millis(100);
  slo.observe(7, at_ms(1), millis(50), window);
  slo.observe(7, at_ms(2), millis(120), window);  // margin -20 ms: a violation
  slo.observe(7, at_ms(3), millis(100), window);  // margin 0: not a violation
  const SloMonitor::ObjectSlo& o = slo.objects().at(7);
  EXPECT_EQ(o.samples, 3u);
  EXPECT_EQ(o.violations, 1u);
  EXPECT_EQ(o.min_margin, millis(-20));
  EXPECT_EQ(o.window, window);
  EXPECT_EQ(o.near_tight, 2u);  // margins -20 and 0
}

TEST(SloMonitor, DisabledOrWindowlessSamplesAreIgnored) {
  SloMonitor slo;
  slo.observe(1, at_ms(1), millis(5), millis(10));
  slo.on_degradation_signal(at_ms(1), "shed");
  EXPECT_TRUE(slo.objects().empty());
  EXPECT_EQ(slo.degradation_signals(), 0u);
  slo.enable();
  slo.observe(1, at_ms(1), millis(5), Duration::zero());
  EXPECT_TRUE(slo.objects().empty());
}

TEST(SloMonitor, ExportWritesTheCoreSloNames) {
  SloMonitor slo;
  slo.enable();
  const Duration window = millis(100);
  slo.observe(3, at_ms(1), millis(50), window);   // margin 50 ms
  slo.observe(3, at_ms(2), millis(120), window);  // margin -20 ms
  slo.on_degradation_signal(at_ms(2), "shed");
  slo.on_degradation_signal(at_ms(3), "shed");
  slo.on_degradation_signal(at_ms(3), "overload");

  bool enabled = true;
  Registry reg(&enabled);
  slo.export_to(reg);
  const auto counter = [&reg](const std::string& name) {
    return reg.counters().at(name).value();
  };
  const auto gauge = [&reg](const std::string& name) { return reg.gauges().at(name).value(); };
  EXPECT_EQ(counter("core.slo.samples"), 2u);
  EXPECT_EQ(counter("core.slo.violation_samples"), 1u);
  EXPECT_EQ(counter("core.slo.degradation_signals"), 3u);
  EXPECT_EQ(counter("core.slo.signal.shed"), 2u);
  EXPECT_EQ(counter("core.slo.signal.overload"), 1u);
  EXPECT_EQ(counter("core.slo.obj3.samples"), 2u);
  EXPECT_EQ(counter("core.slo.obj3.near_miss_tight"), 1u);
  EXPECT_EQ(counter("core.slo.obj3.near_miss_loose"), 1u);
  EXPECT_EQ(counter("core.slo.obj3.violation_samples"), 1u);
  EXPECT_DOUBLE_EQ(gauge("core.slo.obj3.window_ms"), 100.0);
  EXPECT_DOUBLE_EQ(gauge("core.slo.obj3.margin_min_ms"), -20.0);
  EXPECT_TRUE(reg.gauges().contains("core.slo.obj3.margin_p01_ms"));
  EXPECT_TRUE(reg.gauges().contains("core.slo.obj3.margin_p10_ms"));
  EXPECT_TRUE(reg.gauges().contains("core.slo.obj3.margin_p50_ms"));
  // One of two samples violated: half the samples over a 1% budget.
  EXPECT_DOUBLE_EQ(gauge("core.slo.obj3.burn_rate_short"), 50.0);
  EXPECT_DOUBLE_EQ(gauge("core.slo.obj3.burn_rate_long"), 50.0);
  EXPECT_EQ(reg.counters().size(), 9u);
  EXPECT_EQ(reg.gauges().size(), 7u);
}

}  // namespace
}  // namespace rtpb::telemetry
