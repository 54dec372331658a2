// End-to-end post-mortem regression: a sabotaged run that trips a
// temporal-consistency oracle must automatically write the last window of
// the Hub's event ring as a versioned JSONL artifact whose tail is the
// violation event blaming the guilty span.  This is the acceptance gate
// for the observability plane — the artifact exists *because* the oracle
// fired, with no operator action.  The ring runs alone (no spans, no
// instruments) unless telemetry is on, and the post-mortem counts the
// same events either way.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/experiment.hpp"
#include "chaos/harness.hpp"
#include "chaos/sabotage.hpp"

namespace rtpb::chaos {
namespace {

/// Read a JSONL artifact into lines (skipping blanks).
std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// An artifact path under the test temp dir, removed on entry and again on
/// scope exit, so a failed ASSERT cannot leave the file behind.
struct TempArtifact {
  explicit TempArtifact(const char* name) : path(::testing::TempDir() + name) {
    std::remove(path.c_str());
  }
  ~TempArtifact() { std::remove(path.c_str()); }
  TempArtifact(const TempArtifact&) = delete;
  TempArtifact& operator=(const TempArtifact&) = delete;

  const std::string path;
};

/// The slow-updates sabotage: transmission period far beyond every
/// negotiated window, admission control off, zero faults — staleness
/// oracles must fire deterministically.
ChaosOptions sabotaged_opts() {
  ChaosOptions opts;
  opts.duration = seconds(6);
  find_sabotage("slow-updates")->plant(opts);
  return opts;
}

TEST(ChaosPostmortem, OracleViolationDumpsArtifactWithGuiltySpan) {
  const TempArtifact artifact("pm_gtest_violation.jsonl");
  const std::string& path = artifact.path;

  ChaosOptions opts = sabotaged_opts();
  opts.telemetry = true;  // spans on, so violation records carry the span id
  opts.postmortem_path = path;

  const SeedReport report = run_seed(1, opts);
  ASSERT_GT(report.violation_count, 0u) << "sabotage failed to trip an oracle";
  EXPECT_TRUE(report.postmortem_written);
  EXPECT_EQ(report.postmortem_reason.rfind("oracle:", 0), 0u)
      << "dump reason was '" << report.postmortem_reason
      << "', expected the first oracle violation to trigger it";
  EXPECT_GT(report.flight_events, 0u);

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_FALSE(lines.empty()) << "artifact file was not written";

  // Versioned header first, blaming the oracle.
  EXPECT_NE(lines.front().find("\"type\":\"postmortem\""), std::string::npos);
  EXPECT_NE(lines.front().find("\"version\":2"), std::string::npos);
  EXPECT_NE(lines.front().find("\"reason\":\"oracle:"), std::string::npos);

  // The retained tail must include the violation event, and — because
  // telemetry was on — it must carry the guilty span's nonzero id.
  bool violation_with_span = false;
  for (const std::string& line : lines) {
    if (line.find("\"name\":\"violation:") == std::string::npos) continue;
    const std::size_t span_at = line.find("\"span\":");
    if (span_at != std::string::npos &&
        line.compare(span_at + 7, 2, "0,") != 0 &&
        line.compare(span_at + 7, 2, "0}") != 0) {
      violation_with_span = true;
    }
  }
  EXPECT_TRUE(violation_with_span)
      << "no violation record with a nonzero span in the artifact";
}

TEST(ChaosPostmortem, FirstTriggerWinsAndHealthyRunsDumpAtEndOfRun) {
  // A healthy run never trips an oracle, so the only dump is the explicit
  // end-of-run one (the artifact is still useful as a "what happened last"
  // record), and its reason says so.
  const TempArtifact artifact("pm_gtest_healthy.jsonl");
  const std::string& path = artifact.path;

  ChaosOptions opts;
  opts.duration = seconds(6);
  opts.enable_crashes = false;
  opts.enable_loss_storms = false;
  opts.enable_link_faults = false;
  opts.postmortem_path = path;

  const SeedReport report = run_seed(5, opts);
  EXPECT_EQ(report.violation_count, 0u) << "expected a clean run";
  EXPECT_TRUE(report.postmortem_written);
  EXPECT_EQ(report.postmortem_reason, "end-of-run");

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.front().find("\"reason\":\"end-of-run\""), std::string::npos);
  // Exactly one header: the end-of-run trigger fired once, and a second
  // trigger (had one raced) would have been swallowed by first-wins.
  std::size_t headers = 0;
  for (const std::string& line : lines) {
    if (line.find("\"type\":\"postmortem\"") != std::string::npos) ++headers;
  }
  EXPECT_EQ(headers, 1u);
}

/// The event names of every fact the post-mortem keeps.
std::set<std::string> postmortem_event_names() {
  std::set<std::string> names;
  for (const auto& row : telemetry::kFactSinks<core::Fact>) {
    if (row.postmortem) names.insert(row.event);
  }
  for (const auto& row : telemetry::kFactSinks<OracleFact>) {
    if (row.postmortem) names.insert(row.event);
  }
  return names;
}

/// The value of the string field `key` of a JSONL line ("" if absent).
std::string field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t from = at + needle.size();
  return line.substr(from, line.find('"', from) - from);
}

TEST(ChaosPostmortem, RingAloneMintsNoSpansAndKeepsOnlyPostmortemEvents) {
  const TempArtifact artifact("pm_gtest_ring_alone.jsonl");
  ChaosOptions opts = sabotaged_opts();
  opts.postmortem_path = artifact.path;  // the ring alone: no telemetry

  Experiment experiment(1, opts);
  experiment.service().run_for(opts.duration);
  experiment.finish();
  const telemetry::Hub& hub = experiment.service().simulator().telemetry();
  EXPECT_FALSE(hub.enabled());
  EXPECT_EQ(hub.spans_started(), 0u);
  EXPECT_TRUE(hub.registry().counters().empty());
  EXPECT_TRUE(hub.registry().gauges().empty());
  EXPECT_TRUE(hub.registry().histograms().empty());
  EXPECT_TRUE(hub.postmortem_written());
  EXPECT_EQ(hub.postmortem_reason().rfind("oracle:", 0), 0u) << hub.postmortem_reason();

  const std::vector<std::string> lines = read_lines(artifact.path);
  ASSERT_GT(lines.size(), 1u);
  EXPECT_NE(lines.front().find("\"type\":\"postmortem\""), std::string::npos);
  const std::set<std::string> kept = postmortem_event_names();
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(field(lines[i], "type"), "event") << lines[i];
    EXPECT_TRUE(kept.contains(field(lines[i], "name"))) << lines[i];
  }
  // The window ends at its trigger: the violation the header names.
  EXPECT_EQ("violation:" + hub.postmortem_reason().substr(7), field(lines.back(), "name"));
}

/// Seed 7 with two backups, overload and crash-restart.
ChaosOptions seed7_opts() {
  ChaosOptions opts;
  opts.backups = 2;
  opts.enable_overload = true;
  opts.enable_crash_restart = true;
  return opts;
}

TEST(ChaosPostmortem, WithTelemetryTheWindowEndsAtItsTrigger) {
  const TempArtifact artifact("pm_gtest_window.jsonl");
  ChaosOptions opts = seed7_opts();
  opts.telemetry = true;
  opts.postmortem_path = artifact.path;

  const SeedReport report = run_seed(7, opts);
  ASSERT_TRUE(report.postmortem_written);
  ASSERT_EQ(report.postmortem_reason.rfind("crash:node", 0), 0u) << report.postmortem_reason;
  const std::vector<std::string> lines = read_lines(artifact.path);
  ASSERT_GT(lines.size(), 1u);
  EXPECT_LE(lines.size() - 1, telemetry::Hub::kPostmortemEvents);
  EXPECT_NE(lines.front().find("\"reason\":\"" + report.postmortem_reason + "\""),
            std::string::npos);
  // The last event is the crash of the node the header names.
  const std::string node = report.postmortem_reason.substr(10);
  EXPECT_EQ(field(lines.back(), "name"), "crash") << lines.back();
  EXPECT_NE(lines.back().find("\"node\":" + node + ","), std::string::npos) << lines.back();
}

TEST(ChaosPostmortem, EventCountIsTheSameWithTheRingAloneAndWithTelemetry) {
  ChaosOptions ring = seed7_opts();
  ring.flight_recorder = true;
  ChaosOptions full = ring;
  full.telemetry = true;
  const SeedReport alone = run_seed(7, ring);
  const SeedReport observed = run_seed(7, full);
  EXPECT_EQ(alone.flight_events, 5063u);
  EXPECT_EQ(observed.flight_events, 5063u);
  EXPECT_EQ(alone.trace_digest, observed.trace_digest);
}

}  // namespace
}  // namespace rtpb::chaos
