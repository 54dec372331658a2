// Telemetry: registry instruments and JSON snapshots, causal span
// lifecycle (mint / lookup / context / violation / eviction), bounded
// event retention, exporter output shape, and the two properties the
// whole design hangs on — a disabled hub is a no-op, and an enabled hub
// never perturbs the simulation (identical chaos digests either way).
#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/harness.hpp"
#include "core/rtpb.hpp"
#include "telemetry/export.hpp"
#include "telemetry/facts.hpp"

namespace rtpb::telemetry {
namespace {

/// Renders the detail an event carries as an interned text in `a`.
void render_interned(const Hub& hub, const Event& e, Part /*part*/, std::string& out) {
  out += hub.text(static_cast<TextId>(e.a));
}

/// Records an event with interned track and name, and its detail as an
/// interned text.
void record(Hub& hub, SpanId span, std::uint32_t node, EventKind kind, std::string_view track,
            std::string_view name, std::string_view detail = {}) {
  const bool has_detail = !detail.empty();
  hub.record({.at = hub.now(),
              .span = span,
              .a = hub.intern(detail),
              .render = has_detail ? &render_interned : nullptr,
              .node = node,
              .track = hub.intern(track),
              .name = hub.intern(name),
              .kind = kind});
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(TelemetryRegistry, DisabledInstrumentsAreNoOps) {
  Hub hub;  // never enabled
  hub.registry().counter("net.link.drops").add(7);
  hub.registry().gauge("core.service.backups").set(3.0);
  hub.registry().histogram("net.link.delay_ms").record_ms(1.5);

  EXPECT_EQ(hub.registry().counter("net.link.drops").value(), 0u);
  EXPECT_EQ(hub.registry().gauge("core.service.backups").value(), 0.0);
  EXPECT_TRUE(hub.registry().histogram("net.link.delay_ms").samples().empty());
}

TEST(TelemetryRegistry, SameNameReturnsSameInstrument) {
  Hub hub;
  hub.enable();
  Counter& a = hub.registry().counter("core.primary.writes");
  Counter& b = hub.registry().counter("core.primary.writes");
  EXPECT_EQ(&a, &b);
  a.add(2);
  b.add(3);
  EXPECT_EQ(hub.registry().counter("core.primary.writes").value(), 5u);
}

TEST(TelemetryRegistry, QuantileReadsDoNotMoveTheMean) {
  // Summed in recording order these samples cancel to 1 (mean 0.25);
  // summed sorted they cancel to 0.  Exporting sorts the samples in place,
  // so a later export must still report the recording-order mean.
  Hub hub;
  hub.enable();
  LatencyHistogram& h = hub.registry().histogram("h");
  for (const double ms : {1e16, 1.0, -1e16, 1.0}) h.record_ms(ms);
  const std::string first = hub.registry().to_json();
  EXPECT_NE(first.find("\"mean_ms\":0.25,"), std::string::npos) << first;
  EXPECT_EQ(hub.registry().to_json(), first);
  EXPECT_EQ(h.mean_ms(), 0.25);
}

TEST(TelemetryRegistry, JsonNestsAlongDots) {
  Hub hub;
  hub.enable();
  hub.registry().counter("net.link.drops").add(2);
  hub.registry().counter("net.link.sends").add(9);
  hub.registry().counter("sched.preemptions").add(1);
  hub.registry().gauge("core.service.backups").set(1.0);
  hub.registry().histogram("net.link.delay_ms").record_ms(2.0);
  hub.registry().histogram("net.link.delay_ms").record_ms(4.0);

  const std::string json = hub.registry().to_json();
  // Dotted names become nested objects; siblings share one subtree.
  EXPECT_NE(json.find("\"counters\":{\"net\":{\"link\":{\"drops\":2,\"sends\":9}}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"sched\":{\"preemptions\":1}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\":{\"core\":{\"service\":{\"backups\":1}}}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"delay_ms\":{\"count\":2,\"mean_ms\":3"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

TEST(TelemetryHub, DisabledHubMintsNoSpansAndRecordsNothing) {
  Hub hub;
  EXPECT_EQ(hub.begin_span(1, 1), kNoSpan);
  record(hub, kNoSpan, 1, EventKind::kInstant, "node1/net", "net-enqueue");
  EXPECT_TRUE(hub.events().empty());
  EXPECT_EQ(hub.recorded_events(), 0u);
  EXPECT_EQ(hub.spans_started(), 0u);
}

TEST(TelemetryHub, SpanLifecycle) {
  Hub hub;
  hub.enable();
  const SpanId s1 = hub.begin_span(7, 1);
  const SpanId s2 = hub.begin_span(7, 2);
  const SpanId s3 = hub.begin_span(8, 1);
  EXPECT_NE(s1, kNoSpan);
  EXPECT_NE(s1, s2);
  EXPECT_EQ(hub.spans_started(), 3u);

  EXPECT_EQ(hub.span_for(7, 1), s1);
  EXPECT_EQ(hub.span_for(7, 2), s2);
  EXPECT_EQ(hub.span_for(7, 99), kNoSpan);
  EXPECT_EQ(hub.latest_span(7), s2);
  EXPECT_EQ(hub.latest_span(8), s3);
  EXPECT_EQ(hub.latest_span(999), kNoSpan);
}

TEST(TelemetryHub, ScopedSpanNestsAndRestores) {
  Hub hub;
  hub.enable();
  const SpanId s1 = hub.begin_span(1, 1);
  const SpanId s2 = hub.begin_span(1, 2);
  EXPECT_EQ(hub.current_span(), kNoSpan);
  {
    ScopedSpan outer(hub, s1);
    EXPECT_EQ(hub.current_span(), s1);
    {
      ScopedSpan inner(hub, s2);
      EXPECT_EQ(hub.current_span(), s2);
    }
    EXPECT_EQ(hub.current_span(), s1);
  }
  EXPECT_EQ(hub.current_span(), kNoSpan);
}

TEST(TelemetryHub, MarkViolationFlagsSpanOnce) {
  Hub hub;
  hub.enable();
  const SpanId s = hub.begin_span(3, 4);
  hub.mark_violation(s, "staleness-window");
  hub.mark_violation(s, "no-silent-violation");  // same span again
  EXPECT_EQ(hub.spans_violated(), 1u);
  ASSERT_NE(hub.find_span(s), nullptr);
  EXPECT_EQ(hub.find_span(s)->violation, "staleness-window");
  // The flag is all: the violation's event is the oracle's own fact.
  EXPECT_TRUE(hub.events().empty());

  hub.mark_violation(kNoSpan, "oracle");  // must not crash
  EXPECT_EQ(hub.spans_violated(), 1u);
}

TEST(TelemetryHub, SpanEvictionIsFifoAndCleansLookups) {
  Hub hub;
  hub.enable(/*event_capacity=*/64, /*span_capacity=*/2);
  const SpanId s1 = hub.begin_span(1, 1);
  const SpanId s2 = hub.begin_span(1, 2);
  const SpanId s3 = hub.begin_span(2, 1);  // evicts s1
  EXPECT_EQ(hub.spans().size(), 2u);
  EXPECT_EQ(hub.span_for(1, 1), kNoSpan) << "evicted span must not resolve";
  EXPECT_EQ(hub.span_for(1, 2), s2);
  EXPECT_EQ(hub.latest_span(2), s3);
  EXPECT_EQ(hub.spans_started(), 3u) << "eviction must not unwind the started count";
  EXPECT_EQ(s1, hub.spans_started() - 2);  // ids stay monotone
  EXPECT_EQ(hub.find_span(s1), nullptr);
  ASSERT_NE(hub.find_span(s3), nullptr);
  EXPECT_EQ(hub.find_span(s3)->object, 2u);
  EXPECT_EQ(hub.find_span(s3 + 1), nullptr);
  EXPECT_EQ(hub.spans().front().id, s2);  // the exporters' order: by id
}

TEST(TelemetryHub, EvictionKeepsANewerSpanForTheSameKey) {
  // A failover can re-mint a version the hub already holds a span for;
  // evicting the older span must not unmap the newer one.
  Hub hub;
  hub.enable(/*event_capacity=*/64, /*span_capacity=*/2);
  hub.begin_span(1, 5);
  const SpanId again = hub.begin_span(1, 5);
  hub.begin_span(2, 1);  // evicts the first (1, 5) span
  EXPECT_EQ(hub.span_for(1, 5), again);
}

TEST(TelemetryHub, EventRetentionIsBounded) {
  Hub hub;
  hub.enable(/*event_capacity=*/2, /*span_capacity=*/16);
  record(hub, kNoSpan, 1, EventKind::kInstant, "t", "a");
  record(hub, kNoSpan, 1, EventKind::kInstant, "t", "b");
  record(hub, kNoSpan, 1, EventKind::kInstant, "t", "c");
  EXPECT_EQ(hub.events().size(), 2u);
  EXPECT_EQ(hub.name_of(hub.events().front()), "b");
  EXPECT_EQ(hub.recorded_events(), 3u);
  EXPECT_EQ(hub.dropped_events(), 1u);
}

TEST(TelemetryHub, RingOverwritesOldestInOrder) {
  Hub hub;
  hub.enable(/*event_capacity=*/3, /*span_capacity=*/16);
  for (const char* name : {"a", "b", "c", "d", "e"}) {
    record(hub, kNoSpan, 1, EventKind::kInstant, "t", name, std::string("detail ") + name);
  }
  EXPECT_EQ(hub.recorded_events(), 5u);
  EXPECT_EQ(hub.dropped_events(), 2u);
  const EventView events = hub.events();
  ASSERT_EQ(events.size(), 3u);
  std::vector<std::string> names;
  std::vector<std::string> details;
  for (const Event& e : events) {
    names.push_back(hub.name_of(e));
    details.push_back(hub.detail_of(e));
  }
  EXPECT_EQ(names, (std::vector<std::string>{"c", "d", "e"}));
  EXPECT_EQ(details, (std::vector<std::string>{"detail c", "detail d", "detail e"}));
  EXPECT_EQ(hub.name_of(events.front()), "c");
  EXPECT_EQ(hub.name_of(events.back()), "e");
  EXPECT_EQ(hub.track_of(events.front()), "t");
}

TEST(TelemetryHub, RingSpansChunks) {
  // Past one 1024-event chunk, and around the ring more than once.
  Hub hub;
  hub.enable(/*event_capacity=*/1500, /*span_capacity=*/16);
  for (std::uint64_t i = 0; i < 4000; ++i) hub.record({.a = i});
  ASSERT_EQ(hub.events().size(), 1500u);
  EXPECT_EQ(hub.dropped_events(), 2500u);
  std::uint64_t want = 2500;
  for (const Event& e : hub.events()) EXPECT_EQ(e.a, want++);
}

TEST(TelemetryHub, InternedIdsSurviveClear) {
  Hub hub;
  hub.enable();
  const TextId track = hub.intern("node1/net");
  const TextId name = hub.intern("net-deliver");
  EXPECT_NE(track, name);
  EXPECT_EQ(hub.intern("node1/net"), track);
  EXPECT_EQ(hub.intern(""), 0u);
  EXPECT_EQ(hub.text(track), "node1/net");
  EXPECT_EQ(hub.text(name), "net-deliver");
  EXPECT_EQ(hub.intern("net-deliver"), name);
  hub.record({.track = track, .name = name});
  EXPECT_EQ(hub.track_of(hub.events().front()), "node1/net");
  EXPECT_EQ(hub.name_of(hub.events().front()), "net-deliver");
}

// ---------------------------------------------------------------------------
// Post-mortem.
// ---------------------------------------------------------------------------

/// Two facts, one of them kept by the post-mortem.
enum class Probe : std::uint8_t { kLoud, kKept, kCount };

constexpr FactSinks<Probe> fact_sinks(Probe f) {
  switch (f) {
    case Probe::kLoud: return {.counter = "probe.loud", .event = "loud"};
    case Probe::kKept: return {.counter = "probe.kept", .event = "kept", .postmortem = true};
    case Probe::kCount: break;
  }
  return {};
}

TEST(TelemetryHub, RingAloneKeepsOnlyPostmortemFacts) {
  Hub hub;
  hub.enable_postmortem();
  EXPECT_FALSE(hub.enabled());
  EXPECT_TRUE(hub.ring_on());
  Facts<Probe> facts("probe", nullptr, &hub);
  facts.emit(Probe::kLoud, {.a = 1});
  facts.emit(Probe::kKept, {.a = 2});
  EXPECT_EQ(facts.count(Probe::kLoud), 1u);
  EXPECT_EQ(facts.count(Probe::kKept), 1u);
  // The kept fact is the ring's one event; no span, no instrument.
  ASSERT_EQ(hub.events().size(), 1u);
  EXPECT_EQ(hub.name_of(hub.events().front()), "kept");
  EXPECT_EQ(hub.track_of(hub.events().front()), "probe");
  EXPECT_EQ(hub.begin_span(1, 1), kNoSpan);
  EXPECT_TRUE(hub.registry().counters().empty());
  // Triggers count as post-mortem events too; with no path none writes.
  EXPECT_EQ(hub.postmortem_events(), 1u);
  EXPECT_FALSE(hub.trigger_postmortem("end-of-run"));
  EXPECT_EQ(hub.postmortem_events(), 2u);
  EXPECT_FALSE(hub.postmortem_written());
}

TEST(TelemetryHub, PostmortemIsTheLastWindowUpToTheFirstTrigger) {
  const std::string path = ::testing::TempDir() + "pm_window.jsonl";
  std::remove(path.c_str());
  Hub hub;
  hub.enable();
  hub.enable_postmortem(path);
  const TextId track = hub.intern("t");
  const std::size_t extra = 100;
  for (std::size_t i = 0; i + 1 < Hub::kPostmortemEvents + extra; ++i) {
    hub.record({.a = i, .track = track, .name = hub.intern("e")});
  }
  hub.record({.track = track, .name = hub.intern("last")});
  EXPECT_TRUE(hub.trigger_postmortem("first"));
  hub.record({.track = track, .name = hub.intern("after")});
  EXPECT_FALSE(hub.trigger_postmortem("second"));  // the first trigger wins
  EXPECT_EQ(hub.postmortem_reason(), "first");
  EXPECT_EQ(hub.postmortem_events(), 2u);

  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), Hub::kPostmortemEvents + 1);
  EXPECT_EQ(lines.front(),
            "{\"type\":\"postmortem\",\"version\":2,\"reason\":\"first\",\"at_ms\":0.000000,"
            "\"recorded\":8292,\"retained\":8192,\"dropped\":100}");
  EXPECT_NE(lines[1].find("\"name\":\"e\""), std::string::npos) << lines[1];
  EXPECT_NE(lines.back().find("\"name\":\"last\""), std::string::npos) << lines.back();
}

// ---------------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------------

/// A hub with a fixed clock and a small primary→net→backup journey.
void populate(Hub& hub) {
  hub.enable();
  TimePoint now = TimePoint{} + millis(1);
  hub.set_clock([&now] { return now; });
  const SpanId s = hub.begin_span(5, 9);
  record(hub, s, 1, EventKind::kInstant, "node1/rtpb", "write", "obj5 v9");
  now = now + millis(1);
  record(hub, s, 1, EventKind::kInstant, "node1/net", "net-enqueue", "node1->node2 109B");
  now = now + millis(2);
  record(hub, s, 2, EventKind::kInstant, "node2/net", "net-deliver", "\"quoted\"\n");
  record(hub, s, 2, EventKind::kInstant, "node2/rtpb", "update-apply", "obj5 v9");
  record(hub, kNoSpan, 2, EventKind::kBegin, "cpu2", "job #1");
  now = now + millis(1);
  record(hub, kNoSpan, 2, EventKind::kEnd, "cpu2", "job #1");
}

TEST(TelemetryExport, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("x\ny\tz"), "x\\ny\\tz");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(TelemetryExport, ChromeTraceIsWellFormed) {
  Hub hub;
  populate(hub);
  std::ostringstream out;
  write_chrome_trace(hub, out);
  const std::string json = out.str();

  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u) << json;
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  // Metadata names every track; slices and instants carry their phase.
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"node1/rtpb\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  // The span renders as one nestable async track with its hops attached.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"n\""), std::string::npos);
  // Event details are escaped, never raw.
  EXPECT_NE(json.find("\\\"quoted\\\"\\n"), std::string::npos);
  // Balanced braces/brackets (cheap structural sanity; full parse happens
  // in the CI smoke step via Perfetto-compatible tooling).
  long depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(TelemetryExport, JsonlStreamShape) {
  Hub hub;
  populate(hub);
  std::ostringstream out;
  write_jsonl(hub, out);
  std::istringstream lines(out.str());
  std::string line;

  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("{\"type\":\"meta\",\"spans_started\":1,", 0), 0u) << line;

  std::size_t span_lines = 0;
  std::size_t event_lines = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("{\"type\":\"span\"", 0) == 0) ++span_lines;
    if (line.rfind("{\"type\":\"event\"", 0) == 0) ++event_lines;
    EXPECT_EQ(line.back(), '}') << line;
  }
  EXPECT_EQ(span_lines, hub.spans().size());
  EXPECT_EQ(event_lines, hub.events().size());
}

// ---------------------------------------------------------------------------
// End to end: spans cross the real service, and telemetry never perturbs it.
// ---------------------------------------------------------------------------

TEST(TelemetryEndToEnd, SpansCrossPrimaryNetBackup) {
  core::ServiceParams params;
  params.seed = 42;
  params.link.propagation = millis(1);
  params.link.jitter = micros(200);
  core::RtpbService service(params);
  service.simulator().telemetry().enable();
  service.start();

  core::ObjectSpec spec;
  spec.id = 1;
  spec.name = "obj1";
  spec.size_bytes = 64;
  spec.client_period = millis(10);
  spec.client_exec = micros(200);
  spec.update_exec = micros(200);
  spec.delta_primary = millis(20);
  spec.delta_backup = millis(100);
  ASSERT_TRUE(service.register_object(spec).ok());
  service.run_for(seconds(2));
  service.finish();

  const Hub& hub = service.simulator().telemetry();
  EXPECT_GT(hub.spans_started(), 100u);  // one span per client write
  const auto& counters = hub.registry().counters();
  EXPECT_GT(counters.at("core.primary.writes").value(), 100u);
  EXPECT_GT(counters.at("net.link.sends").value(), 0u);
  EXPECT_GT(counters.at("core.backup.applies").value(), 0u);

  // At least one span must thread the full journey: write at the primary,
  // x-kernel push, network hop, and apply at the backup — same span id.
  bool crossed = false;
  std::map<SpanId, std::set<std::string>> names_by_span;
  for (const Event& e : hub.events()) {
    if (e.span != kNoSpan) names_by_span[e.span].insert(hub.name_of(e));
  }
  for (const auto& [span, names] : names_by_span) {
    if (names.count("write") && names.count("udp-push") && names.count("net-deliver") &&
        names.count("update-apply")) {
      crossed = true;
      break;
    }
  }
  EXPECT_TRUE(crossed) << "no span crossed primary -> net -> backup";
}

TEST(TelemetryEndToEnd, ChaosDigestIdenticalWithTelemetryOnAndOff) {
  chaos::ChaosOptions opts;
  opts.duration = millis(3000);
  opts.objects = 2;

  chaos::ChaosOptions with_telemetry = opts;
  with_telemetry.telemetry = true;

  const chaos::SeedReport plain = chaos::run_seed(7, opts);
  const chaos::SeedReport traced = chaos::run_seed(7, with_telemetry);
  EXPECT_EQ(plain.trace_digest, traced.trace_digest)
      << "telemetry must not perturb the simulation";
  EXPECT_EQ(plain.sim_events, traced.sim_events);
  EXPECT_EQ(plain.client_writes, traced.client_writes);
  EXPECT_GT(traced.spans_started, 0u);
  EXPECT_FALSE(traced.metrics_json.empty());
  EXPECT_TRUE(plain.metrics_json.empty());
}

}  // namespace
}  // namespace rtpb::telemetry
