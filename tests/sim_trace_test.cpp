// Execution tracing: the trace digest's byte contract and how Facts::emit
// feeds it, plus cross-subsystem event ordering assertions on a live
// service's telemetry Hub timeline.  The suite keeps the name of the
// recorder the digest once lived in.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/rtpb.hpp"
#include "sched/cpu.hpp"
#include "telemetry/facts.hpp"
#include "telemetry/telemetry.hpp"

namespace rtpb {

// Two components with one digest fact each, at the same index.
namespace probe {
enum class Left : std::uint8_t { kTick, kQuiet, kCount };
enum class Right : std::uint8_t { kTick, kCount };
constexpr telemetry::FactSinks<Left> fact_sinks(Left f) {
  return f == Left::kTick ? telemetry::FactSinks<Left>{.event = "tick", .digest = true}
                          : telemetry::FactSinks<Left>{.counter = "probe.quiet"};
}
constexpr telemetry::FactSinks<Right> fact_sinks(Right) { return {.digest = true}; }
}  // namespace probe

namespace {

// ---- digest contract ----
// Each record folds as seven 64-bit words: the domain, the fact shifted
// above the 32-bit node, then a, b, c, value and the instant.  A word is
// xored in and multiplied by the FNV-1a prime, then the high half is
// xored into the low half.  reference_fold() spells that out
// independently of telemetry::Digest.

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

struct Record {
  std::uint64_t domain = 0;
  std::uint8_t fact = 0;
  std::uint32_t node = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::int64_t value = 0;
  TimePoint at{};
};

std::uint64_t reference_fold(std::uint64_t h, const Record& r) {
  const std::uint64_t words[] = {r.domain,
                                 (std::uint64_t{r.fact} << 32) | r.node,
                                 r.a,
                                 r.b,
                                 r.c,
                                 static_cast<std::uint64_t>(r.value),
                                 static_cast<std::uint64_t>(r.at.nanos())};
  for (const std::uint64_t w : words) {
    h = (h ^ w) * kFnvPrime;
    h ^= h >> 32;
  }
  return h;
}

// The FNV-1a hash of a component's track name: its domain.
std::uint64_t reference_domain(std::string_view name) {
  std::uint64_t h = kFnvOffset;
  for (const char ch : name) h = (h ^ static_cast<std::uint8_t>(ch)) * kFnvPrime;
  return h;
}

void fold(telemetry::Digest& digest, const Record& r) {
  digest.fold(r.domain, r.fact, r.node, r.a, r.b, r.c, r.value, r.at);
}

TEST(TraceRecorder, EmptyDetailFoldsTheReferenceBytes) {
  telemetry::Digest digest;
  EXPECT_EQ(digest.value(), kFnvOffset);
  digest.enable();
  const Record zero{};
  fold(digest, zero);
  std::uint64_t want = reference_fold(kFnvOffset, zero);
  EXPECT_EQ(digest.value(), want);
  const Record full{.domain = 0x1122334455667788,
                    .fact = 7,
                    .node = 0xa0b0c0d0,
                    .a = 1,
                    .b = UINT64_MAX,
                    .c = 64,
                    .value = -2,
                    .at = TimePoint{0x0102030405060708}};
  fold(digest, full);
  want = reference_fold(want, full);
  EXPECT_EQ(digest.value(), want);
  EXPECT_EQ(digest.records(), 2u);
}

TEST(TraceRecorder, FieldBoundaryChangesTheDigest) {
  // Every field has its own fixed width: a value moved to the next field
  // is a different record.
  const Record in_a{.a = 5};
  const Record in_b{.b = 5};
  const Record in_node{.node = 5};
  telemetry::Digest da;
  telemetry::Digest db;
  telemetry::Digest dn;
  for (telemetry::Digest* d : {&da, &db, &dn}) d->enable();
  fold(da, in_a);
  fold(db, in_b);
  fold(dn, in_node);
  EXPECT_NE(da.value(), db.value());
  EXPECT_NE(da.value(), dn.value());
  EXPECT_EQ(da.value(), reference_fold(kFnvOffset, in_a));
  EXPECT_EQ(db.value(), reference_fold(kFnvOffset, in_b));
  EXPECT_EQ(dn.value(), reference_fold(kFnvOffset, in_node));
}

TEST(TraceRecorder, TopBitDifferencesDoNotCancel) {
  // A plain word-wise xor-multiply keeps a top-bit difference in the top
  // bit forever, so two of them would cancel; the fold-down spreads it.
  const Record first{.value = 3};
  const Record second{.b = 9};
  Record first_flipped = first;
  Record second_flipped = second;
  first_flipped.value ^= std::numeric_limits<std::int64_t>::min();
  second_flipped.b ^= 1ULL << 63;
  telemetry::Digest plain;
  telemetry::Digest flipped;
  plain.enable();
  flipped.enable();
  fold(plain, first);
  fold(plain, second);
  fold(flipped, first_flipped);
  fold(flipped, second_flipped);
  EXPECT_NE(plain.value(), flipped.value());
}

TEST(TraceRecorder, DigestIsOrderSensitive) {
  const Record start{.fact = 4, .b = 0, .c = 1, .at = TimePoint{1}};
  const Record send{.fact = 1, .node = 1, .a = 1, .b = 2, .at = TimePoint{1}};
  telemetry::Digest forward;
  telemetry::Digest backward;
  forward.enable();
  backward.enable();
  fold(forward, start);
  fold(forward, send);
  fold(backward, send);
  fold(backward, start);
  EXPECT_EQ(forward.records(), backward.records());
  EXPECT_NE(forward.value(), backward.value());
}

TEST(TraceRecorder, DisabledByDefaultAndFree) {
  telemetry::Digest digest;
  EXPECT_FALSE(digest.enabled());
  fold(digest, Record{.a = 42, .at = TimePoint{1}});
  EXPECT_EQ(digest.value(), kFnvOffset);
  EXPECT_EQ(digest.records(), 0u);
}

TEST(TraceRecorder, RecordsInOrder) {
  telemetry::Digest digest;
  digest.enable();
  const Record first{.fact = 1, .at = TimePoint{1}};
  const Record second{.fact = 2, .c = 9, .at = TimePoint{2}};
  fold(digest, first);
  fold(digest, second);
  ASSERT_EQ(digest.records(), 2u);
  EXPECT_EQ(digest.value(), reference_fold(reference_fold(kFnvOffset, first), second));
}

// ---- Facts::emit feeds the digest ----

TEST(TraceRecorder, DisabledRecorderLeavesDigestAndCountUntouched) {
  // Facts emitted before the digest is enabled leave no trace; enabling it
  // starts the fold from the empty digest.
  telemetry::Hub hub;
  hub.set_clock([] { return TimePoint{3}; });
  telemetry::Facts<probe::Left> facts("left", nullptr, &hub);
  facts.emit(probe::Left::kTick, {.a = 1});
  EXPECT_EQ(hub.digest().value(), kFnvOffset);
  EXPECT_EQ(hub.digest().records(), 0u);
  EXPECT_EQ(facts.count(probe::Left::kTick), 1u);  // the total still counts
  hub.digest().enable();
  facts.emit(probe::Left::kTick, {.a = 2, .node = 4});
  EXPECT_EQ(hub.digest().value(),
            reference_fold(kFnvOffset, {.domain = reference_domain("left"),
                                        .node = 4,
                                        .a = 2,
                                        .at = TimePoint{3}}));
  EXPECT_EQ(hub.digest().records(), 1u);
}

TEST(TraceRecorder, DomainSeparatesComponents) {
  // Equal fact indices of two components fold differently: each folds its
  // track name's domain.
  telemetry::Hub left_hub;
  telemetry::Hub right_hub;
  telemetry::Facts<probe::Left> left("left", nullptr, &left_hub);
  telemetry::Facts<probe::Right> right("right", nullptr, &right_hub);
  left_hub.digest().enable();
  right_hub.digest().enable();
  left.emit(probe::Left::kTick, {.b = 7});
  right.emit(probe::Right::kTick, {.b = 7});
  EXPECT_NE(left_hub.digest().value(), right_hub.digest().value());
  EXPECT_EQ(right_hub.digest().value(),
            reference_fold(kFnvOffset, {.domain = reference_domain("right"), .b = 7}));
}

TEST(TraceRecorder, OnlyFlaggedFactsFoldAndNeverTheirSpan) {
  // The digest sees the same records whatever the Hub collects: a fact
  // without the flag folds nothing, and the span (minted only while the
  // Hub collects) is left out.
  std::uint64_t digests[2] = {0, 0};
  for (int on = 0; on <= 1; ++on) {
    telemetry::Hub hub;
    if (on == 1) {
      hub.enable();
      hub.flight_recorder().enable();
    }
    hub.digest().enable();
    telemetry::Facts<probe::Left> facts("left", nullptr, &hub);
    facts.emit(probe::Left::kQuiet, {.a = 5});
    facts.emit(probe::Left::kTick, {.a = 5, .span = on == 1 ? 99u : telemetry::kNoSpan});
    EXPECT_EQ(hub.digest().records(), 1u);
    digests[on] = hub.digest().value();
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(TraceRecorder, CpuDigestIgnoresTheInternedTaskName) {
  // A CPU fact's `a` is its task's name, interned only while the Hub
  // collects; the hash of the name in `c` stands for it in the digest.
  std::uint64_t digests[2] = {0, 0};
  for (int on = 0; on <= 1; ++on) {
    sim::Simulator sim;
    if (on == 1) {
      sim.telemetry().enable();
      sim.telemetry().intern("shifts every later interned id");
    }
    sim.telemetry().digest().enable();
    sched::Cpu cpu(sim, sched::Policy::kRateMonotonic);
    cpu.add_task({.name = "tick", .period = millis(10), .wcet = millis(2)}, nullptr);
    cpu.start(TimePoint::zero());
    sim.run_until(TimePoint::zero() + millis(35));
    // Four jobs, each released, started and finished.
    EXPECT_EQ(sim.telemetry().digest().records(), 12u);
    digests[on] = sim.telemetry().digest().value();
  }
  EXPECT_EQ(digests[0], digests[1]);
}

/// The digest of a CPU running one task named `name` for 35 ms.
std::uint64_t cpu_digest(const std::string& name) {
  sim::Simulator sim;
  sim.telemetry().digest().enable();
  sched::Cpu cpu(sim, sched::Policy::kRateMonotonic);
  cpu.add_task({.name = name, .period = millis(10), .wcet = millis(2)}, nullptr);
  cpu.start(TimePoint::zero());
  sim.run_until(TimePoint::zero() + millis(35));
  return sim.telemetry().digest().value();
}

TEST(TraceRecorder, LongTaskNameIsNeverTruncated) {
  // Every byte of the name counts: one byte fewer is a different task.
  const std::string name(300, 'n');
  EXPECT_NE(cpu_digest(name), cpu_digest(name.substr(1)));
  EXPECT_EQ(cpu_digest(name), cpu_digest(name));
}

TEST(TraceRecorder, DigestAndRecordedCoverEvictedEvents) {
  // The digest is the determinism oracle: it must fold over EVERY fact
  // ever reported, not just the events the Hub's ring still holds.
  telemetry::Hub left_hub;
  telemetry::Hub right_hub;
  for (telemetry::Hub* hub : {&left_hub, &right_hub}) {
    hub->enable(/*event_capacity=*/4);
    hub->digest().enable();
  }
  telemetry::Facts<probe::Left> left("ev", nullptr, &left_hub);
  telemetry::Facts<probe::Left> right("ev", nullptr, &right_hub);
  for (std::uint64_t i = 0; i < 50; ++i) {
    left.emit(probe::Left::kTick, {.a = i, .at = TimePoint{static_cast<std::int64_t>(i)}});
    right.emit(probe::Left::kTick, {.a = i, .at = TimePoint{static_cast<std::int64_t>(i)}});
  }
  EXPECT_EQ(left_hub.digest().value(), right_hub.digest().value());
  EXPECT_EQ(left_hub.digest().records(), 50u);
  EXPECT_EQ(left_hub.events().size(), 4u);

  // A single divergent fact changes it.
  left.emit(probe::Left::kTick, {.a = 50});
  right.emit(probe::Left::kTick, {.a = 51});
  EXPECT_NE(left_hub.digest().value(), right_hub.digest().value());
}

// ---- the event timeline lives in the telemetry Hub ----

std::vector<const telemetry::Event*> hub_events(const sim::Simulator& sim, std::string_view name,
                                                telemetry::EventKind kind) {
  std::vector<const telemetry::Event*> out;
  const telemetry::Hub& hub = sim.telemetry();
  for (const telemetry::Event& e : hub.events()) {
    if (e.kind == kind && (name.empty() || hub.name_of(e) == name)) out.push_back(&e);
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
    const telemetry::Hub& hub = sim.telemetry();
    EXPECT_EQ(hub.detail_of(*releases[i]), "tick #" + std::to_string(i));
    EXPECT_EQ(hub.name_of(*starts[i]), "tick #" + std::to_string(i));
    EXPECT_EQ(hub.detail_of(*finishes[i]), "tick #" + std::to_string(i));
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
  EXPECT_EQ(service.simulator().telemetry().detail_of(*promotes[0]), "epoch 2");
  // Network activity is on the timeline too.
  EXPECT_FALSE(
      hub_events(service.simulator(), "net-enqueue", telemetry::EventKind::kInstant).empty());
}

}  // namespace
}  // namespace rtpb
