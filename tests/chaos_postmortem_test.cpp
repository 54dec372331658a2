// End-to-end post-mortem regression: a sabotaged run that trips a
// temporal-consistency oracle must automatically dump the flight-recorder
// ring as a versioned JSONL artifact whose tail includes the violation
// record blaming the guilty span.  This is the acceptance gate for the
// observability plane — the artifact exists *because* the oracle fired,
// with no operator action.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/harness.hpp"

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

/// The slow-updates sabotage from chaos_main: transmission period far
/// beyond every negotiated window, admission control off, zero faults —
/// staleness oracles must fire deterministically.
ChaosOptions sabotaged_opts() {
  ChaosOptions opts;
  opts.duration = seconds(6);
  opts.config.update_period_override = millis(800);
  opts.config.admission_control_enabled = false;
  opts.enable_loss_storms = false;
  opts.enable_link_faults = false;
  opts.enable_crashes = false;
  return opts;
}

TEST(FlightRecorderPostmortem, OracleViolationDumpsArtifactWithGuiltySpan) {
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
  EXPECT_NE(lines.front().find("\"version\":1"), std::string::npos);
  EXPECT_NE(lines.front().find("\"reason\":\"oracle:"), std::string::npos);

  // The retained tail must include the violation record, and — because
  // telemetry was on — it must carry the guilty span's nonzero id.
  bool violation_with_span = false;
  for (const std::string& line : lines) {
    if (line.find("\"kind\":\"violation\"") == std::string::npos) continue;
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

TEST(FlightRecorderPostmortem, FirstTriggerWinsAndHealthyRunsDumpAtEndOfRun) {
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

}  // namespace
}  // namespace rtpb::chaos
