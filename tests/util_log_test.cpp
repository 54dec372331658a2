// Logger: level filtering, pluggable sink capture, log_format's dynamic
// growth past the old fixed-buffer truncation point, and a chaos run that
// writes no record: the library reports through facts, not log lines.
#include "util/log.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/harness.hpp"

namespace rtpb {
namespace {

/// Captures records through a sink and restores the logger's global state
/// (level, sink) on teardown — the logger is a process singleton.
class LoggerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_level_ = Logger::instance().level();
    Logger::instance().set_sink([this](const LogRecord& r) { records_.push_back(r); });
  }
  void TearDown() override {
    Logger::instance().clear_sink();
    Logger::instance().set_level(saved_level_);
  }

  std::vector<LogRecord> records_;
  LogLevel saved_level_ = LogLevel::kWarn;
};

TEST_F(LoggerTest, SinkReceivesOnlyRecordsPassingTheLevelFilter) {
  Logger::instance().set_level(LogLevel::kWarn);
  RTPB_LOG(LogLevel::kDebug, "comp", "below threshold %d", 1);
  RTPB_LOG(LogLevel::kInfo, "comp", "below threshold %d", 2);
  RTPB_LOG(LogLevel::kWarn, "comp", "warn %d", 3);
  RTPB_ERROR("comp", "error %d", 4);

  ASSERT_EQ(records_.size(), 2u);
  EXPECT_EQ(records_[0].level, LogLevel::kWarn);
  EXPECT_EQ(records_[0].message, "warn 3");
  EXPECT_EQ(records_[1].level, LogLevel::kError);
  EXPECT_EQ(records_[1].message, "error 4");
  EXPECT_STREQ(records_[0].component, "comp");
}

TEST_F(LoggerTest, LoweringTheLevelAdmitsFinerRecords) {
  Logger::instance().set_level(LogLevel::kTrace);
  RTPB_LOG(LogLevel::kTrace, "t", "visible");
  ASSERT_EQ(records_.size(), 1u);
  EXPECT_EQ(records_[0].level, LogLevel::kTrace);

  Logger::instance().set_level(LogLevel::kOff);
  RTPB_ERROR("t", "suppressed");
  EXPECT_EQ(records_.size(), 1u);
}

TEST_F(LoggerTest, LogFormatGrowsPastTheStackBuffer) {
  // The old implementation silently truncated at 512 bytes.
  const std::string long_arg(2000, 'x');
  Logger::instance().set_level(LogLevel::kInfo);
  RTPB_LOG(LogLevel::kInfo, "t", "head %s tail", long_arg.c_str());

  ASSERT_EQ(records_.size(), 1u);
  EXPECT_EQ(records_[0].message.size(), 2000u + 10u);
  EXPECT_EQ(records_[0].message.substr(0, 7), "head xx");
  EXPECT_EQ(records_[0].message.substr(records_[0].message.size() - 5), " tail");
}

TEST_F(LoggerTest, AChaosSeedWritesNoRecord) {
  // Crashes, restarts, overload, link faults and failover on three
  // replicas, with the finest level on: every event is a fact, none a line.
  Logger::instance().set_level(LogLevel::kTrace);
  chaos::ChaosOptions opts;
  opts.backups = 2;
  opts.enable_overload = true;
  opts.enable_crash_restart = true;
  opts.telemetry = true;
  const chaos::SeedReport report = chaos::run_seed(7, opts);
  EXPECT_GT(report.recoveries, 0u) << "seed 7 was supposed to crash-restart a replica";
  EXPECT_EQ(records_.size(), 0u);
}

TEST(LogFormat, ExactBufferBoundary) {
  // Lengths straddling the 512-byte internal buffer must all come through
  // intact (the boundary is where one-pass snprintf would truncate).
  for (const std::size_t len : {510u, 511u, 512u, 513u, 1024u}) {
    const std::string arg(len, 'y');
    EXPECT_EQ(detail::log_format("%s", arg.c_str()).size(), len);
  }
  EXPECT_EQ(detail::log_format("no args"), "no args");
  EXPECT_EQ(detail::log_format("%d-%s", 7, "z"), "7-z");
}

}  // namespace
}  // namespace rtpb
