// Execution tracing: the trace digest's byte contract, plus cross-subsystem
// event ordering assertions on a live service's telemetry Hub timeline.
#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/rtpb.hpp"
#include "sched/cpu.hpp"
#include "telemetry/telemetry.hpp"

namespace rtpb {
namespace {

// ---- digest contract ----
// The digest is FNV-1a over each trace line's bytes: `at` as 8
// little-endian bytes, the category byte, the label, 0, the detail, 0.
// reference_fold() spells that layout out independently of the recorder.

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t reference_fold(std::uint64_t h, TimePoint at, sim::TraceCategory category,
                             std::string_view label, std::string_view detail) {
  const auto byte = [&h](std::uint8_t b) { h = (h ^ b) * 0x100000001b3ULL; };
  const auto ns = static_cast<std::uint64_t>(at.nanos());
  for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(ns >> (8 * i)));
  byte(static_cast<std::uint8_t>(category));
  for (const char c : label) byte(static_cast<std::uint8_t>(c));
  byte(0);
  for (const char c : detail) byte(static_cast<std::uint8_t>(c));
  byte(0);
  return h;
}

// One whole-string trace line through the recorder's public API.
void record_line(sim::TraceRecorder& trace, TimePoint at, sim::TraceCategory category,
                 std::string_view label, std::string_view detail) {
  trace.record(at, category, label) << detail;
}

TEST(TraceRecorder, EmptyDetailFoldsTheReferenceBytes) {
  sim::TraceRecorder trace;
  EXPECT_EQ(trace.digest(), kFnvOffset);
  trace.enable();
  record_line(trace, TimePoint{1}, sim::TraceCategory::kUser, "marker", "");
  std::uint64_t want = reference_fold(kFnvOffset, TimePoint{1}, sim::TraceCategory::kUser,
                                      "marker", "");
  EXPECT_EQ(trace.digest(), want);
  record_line(trace, TimePoint{0x0102030405060708}, sim::TraceCategory::kNet, "frame-send",
              "node1->node2 64B");
  want = reference_fold(want, TimePoint{0x0102030405060708}, sim::TraceCategory::kNet,
                        "frame-send", "node1->node2 64B");
  EXPECT_EQ(trace.digest(), want);
  EXPECT_EQ(trace.recorded(), 2u);
}

TEST(TraceRecorder, FieldBoundaryChangesTheDigest) {
  sim::TraceRecorder split_late;
  sim::TraceRecorder split_early;
  split_late.enable();
  split_early.enable();
  record_line(split_late, TimePoint{5}, sim::TraceCategory::kCpu, "ab", "c");
  record_line(split_early, TimePoint{5}, sim::TraceCategory::kCpu, "a", "bc");
  EXPECT_NE(split_late.digest(), split_early.digest());
  EXPECT_EQ(split_late.digest(),
            reference_fold(kFnvOffset, TimePoint{5}, sim::TraceCategory::kCpu, "ab", "c"));
  EXPECT_EQ(split_early.digest(),
            reference_fold(kFnvOffset, TimePoint{5}, sim::TraceCategory::kCpu, "a", "bc"));
}

TEST(TraceRecorder, DigestIsOrderSensitive) {
  sim::TraceRecorder forward;
  sim::TraceRecorder backward;
  forward.enable();
  backward.enable();
  record_line(forward, TimePoint{1}, sim::TraceCategory::kCpu, "job-start", "tick #0");
  record_line(forward, TimePoint{1}, sim::TraceCategory::kNet, "frame-send", "node1->node2");
  record_line(backward, TimePoint{1}, sim::TraceCategory::kNet, "frame-send", "node1->node2");
  record_line(backward, TimePoint{1}, sim::TraceCategory::kCpu, "job-start", "tick #0");
  EXPECT_EQ(forward.recorded(), backward.recorded());
  EXPECT_NE(forward.digest(), backward.digest());
}

TEST(TraceRecorder, DisabledRecorderLeavesDigestAndCountUntouched) {
  sim::TraceRecorder trace;
  trace.enable();
  record_line(trace, TimePoint{1}, sim::TraceCategory::kService, "promote", "node2 epoch2");
  const std::uint64_t before = trace.digest();
  trace.disable();
  record_line(trace, TimePoint{2}, sim::TraceCategory::kService, "step-down", "node1 epoch2");
  EXPECT_EQ(trace.digest(), before);
  EXPECT_EQ(trace.recorded(), 1u);
  // Re-enabling resumes the same fold: the skipped line left no trace.
  trace.enable();
  record_line(trace, TimePoint{3}, sim::TraceCategory::kUser, "x", "");
  EXPECT_EQ(trace.digest(),
            reference_fold(before, TimePoint{3}, sim::TraceCategory::kUser, "x", ""));
  EXPECT_EQ(trace.recorded(), 2u);
}

// ---- streamed lines ----
// Call sites stream a line's detail in pieces; FNV-1a is byte-serial, so
// the pieces must fold to the digest of the concatenated string.

TEST(TraceRecorder, StreamedIntegersMatchTheWholeString) {
  sim::TraceRecorder streamed;
  sim::TraceRecorder whole;
  streamed.enable();
  whole.enable();
  streamed.record(TimePoint{9}, sim::TraceCategory::kNet, "ints")
      << std::uint64_t{0} << ' ' << 7 << ' ' << UINT64_MAX << " B" << std::size_t{64};
  record_line(whole, TimePoint{9}, sim::TraceCategory::kNet, "ints",
              "0 7 " + std::to_string(UINT64_MAX) + " B64");
  EXPECT_EQ(streamed.digest(), whole.digest());
  EXPECT_EQ(streamed.recorded(), 1u);
  EXPECT_EQ(whole.digest(), reference_fold(kFnvOffset, TimePoint{9}, sim::TraceCategory::kNet,
                                           "ints", "0 7 18446744073709551615 B64"));
}

TEST(TraceRecorder, LongTaskNameIsNeverTruncated) {
  const std::string name(300, 'n');
  sim::TraceRecorder streamed;
  sim::TraceRecorder clipped;
  streamed.enable();
  clipped.enable();
  streamed.record(TimePoint{4}, sim::TraceCategory::kCpu, "job-start")
      << "cpu0" << ' ' << name << " #" << std::uint64_t{12};
  EXPECT_EQ(streamed.digest(), reference_fold(kFnvOffset, TimePoint{4}, sim::TraceCategory::kCpu,
                                              "job-start", "cpu0 " + name + " #12"));
  // Every byte of the name counts: one byte fewer is a different line.
  record_line(clipped, TimePoint{4}, sim::TraceCategory::kCpu, "job-start",
              "cpu0 " + name.substr(1) + " #12");
  EXPECT_NE(streamed.digest(), clipped.digest());
}

TEST(TraceRecorder, MissedSuffixStreamsLikeTheWholeString) {
  for (const bool missed : {false, true}) {
    sim::TraceRecorder streamed;
    sim::TraceRecorder whole;
    streamed.enable();
    whole.enable();
    streamed.record(TimePoint{20}, sim::TraceCategory::kCpu, "job-finish")
        << "cpu0" << ' ' << "tick" << " #" << std::uint64_t{3} << (missed ? " MISSED" : "");
    record_line(whole, TimePoint{20}, sim::TraceCategory::kCpu, "job-finish",
                std::string("cpu0 tick #3") + (missed ? " MISSED" : ""));
    EXPECT_EQ(streamed.digest(), whole.digest()) << "missed=" << missed;
  }
}

// ---- recorder behaviour ----

TEST(TraceRecorder, DisabledByDefaultAndFree) {
  sim::TraceRecorder trace;
  EXPECT_FALSE(trace.enabled());
  trace.record(TimePoint{1}, sim::TraceCategory::kUser, "ignored") << "detail " << 42;
  EXPECT_EQ(trace.digest(), kFnvOffset);
  EXPECT_EQ(trace.recorded(), 0u);
}

TEST(TraceRecorder, RecordsInOrder) {
  sim::TraceRecorder trace;
  trace.enable();
  trace.record(TimePoint{1}, sim::TraceCategory::kUser, "a");
  trace.record(TimePoint{2}, sim::TraceCategory::kNet, "b") << "context";
  ASSERT_EQ(trace.recorded(), 2u);
  const std::uint64_t first =
      reference_fold(kFnvOffset, TimePoint{1}, sim::TraceCategory::kUser, "a", "");
  EXPECT_EQ(trace.digest(),
            reference_fold(first, TimePoint{2}, sim::TraceCategory::kNet, "b", "context"));
}

TEST(TraceRecorder, DigestAndRecordedCoverEvictedEvents) {
  // The digest is the determinism oracle: it must fold over EVERY event
  // ever recorded.
  sim::TraceRecorder left;
  sim::TraceRecorder right;
  left.enable();
  right.enable();
  for (int i = 0; i < 50; ++i) {
    left.record(TimePoint{i}, sim::TraceCategory::kNet, "ev") << i;
    right.record(TimePoint{i}, sim::TraceCategory::kNet, "ev") << i;
  }
  EXPECT_EQ(left.digest(), right.digest());
  EXPECT_EQ(left.recorded(), 50u);
  EXPECT_EQ(right.recorded(), 50u);

  // A single divergent event changes it.
  left.record(TimePoint{50}, sim::TraceCategory::kNet, "ev") << "fork";
  right.record(TimePoint{50}, sim::TraceCategory::kNet, "ev") << "FORK";
  EXPECT_NE(left.digest(), right.digest());
}

// ---- the event timeline lives in the telemetry Hub ----

std::vector<const telemetry::Event*> hub_events(const sim::Simulator& sim, std::string_view name,
                                                telemetry::EventKind kind) {
  std::vector<const telemetry::Event*> out;
  for (const telemetry::Event& e : sim.telemetry().events()) {
    if (e.kind == kind && (name.empty() || e.name == name)) out.push_back(&e);
  }
  return out;
}

TEST(TraceIntegration, CpuEmitsReleaseStartFinishTriples) {
  sim::Simulator sim;
  sim.telemetry().enable();
  sched::Cpu cpu(sim, sched::Policy::kRateMonotonic);
  sched::TaskSpec t;
  t.name = "tick";
  t.period = millis(10);
  t.wcet = millis(2);
  cpu.add_task(t, nullptr);
  cpu.start(TimePoint::zero());
  sim.run_until(TimePoint::zero() + millis(35));

  const auto releases = hub_events(sim, "job-release", telemetry::EventKind::kInstant);
  const auto starts = hub_events(sim, "", telemetry::EventKind::kBegin);
  const auto finishes = hub_events(sim, "job-finish", telemetry::EventKind::kInstant);
  EXPECT_EQ(releases.size(), 4u);
  EXPECT_EQ(starts.size(), 4u);
  EXPECT_EQ(finishes.size(), 4u);
  // Per job: release <= start < finish.
  for (std::size_t i = 0; i < finishes.size(); ++i) {
    EXPECT_EQ(releases[i]->detail, "tick #" + std::to_string(i));
    EXPECT_EQ(starts[i]->name, "tick #" + std::to_string(i));
    EXPECT_EQ(finishes[i]->detail, "tick #" + std::to_string(i));
    EXPECT_LE(releases[i]->at, starts[i]->at);
    EXPECT_LT(starts[i]->at, finishes[i]->at);
  }
}

TEST(TraceIntegration, FailoverLeavesPromoteMarker) {
  core::ServiceParams params;
  params.link.propagation = millis(1);
  core::RtpbService service(params);
  service.simulator().telemetry().enable();
  service.start();
  core::ObjectSpec spec;
  spec.id = 1;
  spec.client_period = millis(10);
  spec.client_exec = micros(200);
  spec.update_exec = micros(200);
  spec.delta_primary = millis(20);
  spec.delta_backup = millis(100);
  ASSERT_TRUE(service.register_object(spec).ok());
  service.run_for(seconds(1));
  service.crash_primary();
  service.run_for(seconds(1));

  const auto promotes =
      hub_events(service.simulator(), "promote", telemetry::EventKind::kInstant);
  ASSERT_EQ(promotes.size(), 1u);
  // The marker names the promoted node and the epoch it minted (the
  // initial primary held epoch 1, so the first failover mints 2).
  EXPECT_EQ(promotes[0]->node, service.backup().node());
  EXPECT_EQ(promotes[0]->detail, "epoch 2");
  // Network activity is on the timeline too.
  EXPECT_FALSE(
      hub_events(service.simulator(), "net-enqueue", telemetry::EventKind::kInstant).empty());
}

}  // namespace
}  // namespace rtpb
