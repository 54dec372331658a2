// Logger: level filtering, pluggable sink capture, per-thread virtual-clock
// timestamps, and log_format's dynamic growth past the old fixed-buffer
// truncation point.
#include "util/log.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "sim/simulator.hpp"

namespace rtpb {
namespace {

/// Captures records through a sink and restores the logger's global state
/// (level, sink) on teardown — the logger is a process singleton.  The
/// sink may be fed from several threads.
class LoggerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_level_ = Logger::instance().level();
    Logger::instance().set_sink([this](const LogRecord& r) {
      const std::lock_guard<std::mutex> lock(mu_);
      records_.push_back(r);
    });
  }
  void TearDown() override {
    Logger::instance().clear_sink();
    Logger::instance().set_level(saved_level_);
  }

  std::mutex mu_;
  std::vector<LogRecord> records_;
  LogLevel saved_level_ = LogLevel::kWarn;
};

TEST_F(LoggerTest, SinkReceivesOnlyRecordsPassingTheLevelFilter) {
  Logger::instance().set_level(LogLevel::kWarn);
  RTPB_DEBUG("comp", "below threshold %d", 1);
  RTPB_INFO("comp", "below threshold %d", 2);
  RTPB_WARN("comp", "warn %d", 3);
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
  RTPB_TRACE("t", "visible");
  ASSERT_EQ(records_.size(), 1u);
  EXPECT_EQ(records_[0].level, LogLevel::kTrace);

  Logger::instance().set_level(LogLevel::kOff);
  RTPB_ERROR("t", "suppressed");
  EXPECT_EQ(records_.size(), 1u);
}

TEST_F(LoggerTest, VirtualClockStampsRecords) {
  Logger::instance().set_level(LogLevel::kInfo);
  RTPB_INFO("t", "before clock");

  TimePoint now = TimePoint{} + millis(1234);
  {
    const LogClock clock(now);
    RTPB_INFO("t", "with clock");
    now = now + millis(1);
    RTPB_INFO("t", "later");
  }
  RTPB_INFO("t", "after clock");

  ASSERT_EQ(records_.size(), 4u);
  EXPECT_FALSE(records_[0].has_time);
  EXPECT_TRUE(records_[1].has_time);
  EXPECT_EQ(records_[1].time.millis(), 1234.0);
  EXPECT_EQ(records_[2].time.millis(), 1235.0);
  EXPECT_FALSE(records_[3].has_time);
}

TEST_F(LoggerTest, DestroyingAClockRestoresTheOneItDisplaced) {
  Logger::instance().set_level(LogLevel::kInfo);
  const TimePoint outer_now = TimePoint{} + millis(10);
  const TimePoint inner_now = TimePoint{} + millis(20);
  const LogClock outer(outer_now);
  {
    const LogClock inner(inner_now);
    RTPB_INFO("t", "inner");
  }
  RTPB_INFO("t", "outer again");

  ASSERT_EQ(records_.size(), 2u);
  EXPECT_EQ(records_[0].time.millis(), 20.0);
  ASSERT_TRUE(records_[1].has_time);
  EXPECT_EQ(records_[1].time.millis(), 10.0);
}

TEST_F(LoggerTest, AnOlderSimulatorKeepsStampingOnceANewerOneIsGone) {
  // Simulators need not die in reverse order of birth: destroying the
  // older one first must leave the newer one stamping, and destroying the
  // newer one first must hand stamping back to the older one.
  Logger::instance().set_level(LogLevel::kInfo);
  auto older = std::make_unique<sim::Simulator>();
  auto newer = std::make_unique<sim::Simulator>();
  older->schedule_at(TimePoint{} + millis(5), [] {});
  older->run();
  newer->schedule_at(TimePoint{} + millis(7), [] {});
  newer->run();

  older.reset();
  RTPB_INFO("t", "newer alone");
  auto third = std::make_unique<sim::Simulator>();
  third.reset();
  RTPB_INFO("t", "newer again");
  newer.reset();
  RTPB_INFO("t", "none");

  const auto outer = std::make_unique<sim::Simulator>();
  outer->schedule_at(TimePoint{} + millis(3), [] {});
  outer->run();
  {
    const sim::Simulator inner;
    RTPB_INFO("t", "inner");
  }
  RTPB_INFO("t", "outer");

  ASSERT_EQ(records_.size(), 5u);
  EXPECT_EQ(records_[0].time.millis(), 7.0);
  EXPECT_EQ(records_[1].time.millis(), 7.0);
  EXPECT_FALSE(records_[2].has_time);
  EXPECT_EQ(records_[3].time.millis(), 0.0);
  ASSERT_TRUE(records_[4].has_time);
  EXPECT_EQ(records_[4].time.millis(), 3.0);
}

TEST_F(LoggerTest, TwoThreadsEachStampTheirOwnSimulatorsTime) {
  // Each thread builds, runs and logs from its own simulator at the same
  // time; every line carries the virtual time of its own thread's clock.
  Logger::instance().set_level(LogLevel::kInfo);
  auto run_one = [](const char* component, Duration step) {
    sim::Simulator sim;
    for (int i = 1; i <= 50; ++i) {
      sim.schedule_at(TimePoint{} + step * i, [&sim, component] {
        RTPB_INFO(component, "%lld", static_cast<long long>(sim.now().nanos()));
      });
    }
    sim.run();
  };
  std::thread a(run_one, "a", millis(2));
  std::thread b(run_one, "b", millis(3));
  a.join();
  b.join();

  std::size_t seen_a = 0;
  std::size_t seen_b = 0;
  for (const LogRecord& r : records_) {
    ASSERT_TRUE(r.has_time);
    EXPECT_EQ(r.message, std::to_string(r.time.nanos()));
    const std::string component = r.component;
    const std::int64_t step = component == "a" ? 2'000'000 : 3'000'000;
    EXPECT_EQ(r.time.nanos() % step, 0) << component;
    (component == "a" ? seen_a : seen_b) += 1;
  }
  EXPECT_EQ(seen_a, 50u);
  EXPECT_EQ(seen_b, 50u);
}

TEST_F(LoggerTest, LogFormatGrowsPastTheStackBuffer) {
  // The old implementation silently truncated at 512 bytes.
  const std::string long_arg(2000, 'x');
  Logger::instance().set_level(LogLevel::kInfo);
  RTPB_INFO("t", "head %s tail", long_arg.c_str());

  ASSERT_EQ(records_.size(), 1u);
  EXPECT_EQ(records_[0].message.size(), 2000u + 10u);
  EXPECT_EQ(records_[0].message.substr(0, 7), "head xx");
  EXPECT_EQ(records_[0].message.substr(records_[0].message.size() - 5), " tail");
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
