// Tiny leveled logger for the tools' I/O errors (an artifact path that
// cannot be written).  The library reports what happens to it as typed
// facts (telemetry/facts.hpp), never as log lines.  The global threshold
// makes disabled levels nearly free (an atomic load and a branch).  Output
// goes to stderr by default; tests (or embedders) can install a sink to
// capture structured records instead.
#pragma once

#include <atomic>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>

#if defined(__GNUC__) || defined(__clang__)
#define RTPB_PRINTF_FORMAT(fmt_index, first_arg) \
  __attribute__((format(printf, fmt_index, first_arg)))
#else
#define RTPB_PRINTF_FORMAT(fmt_index, first_arg)
#endif

namespace rtpb {

enum class LogLevel : int { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

/// One fully-formatted log line, as handed to an installed sink.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  const char* component = "";
  std::string message;
};

class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) { level_.store(static_cast<int>(level), std::memory_order_relaxed); }
  [[nodiscard]] LogLevel level() const { return static_cast<LogLevel>(level_.load(std::memory_order_relaxed)); }
  [[nodiscard]] bool enabled(LogLevel level) const {
    return static_cast<int>(level) >= level_.load(std::memory_order_relaxed);
  }

  /// Route records to `sink` instead of stderr (clear_sink restores the
  /// default).  The sink sees every record that passes the level filter.
  void set_sink(std::function<void(const LogRecord&)> sink) { sink_ = std::move(sink); }
  void clear_sink() { sink_ = nullptr; }

  void write(LogLevel level, const char* component, std::string msg);

 private:
  Logger() = default;
  std::atomic<int> level_{static_cast<int>(LogLevel::kWarn)};
  std::function<void(const LogRecord&)> sink_;
};

namespace detail {
/// printf-style formatting with no truncation: a stack buffer serves the
/// common case and longer messages get a second, exactly-sized pass.  The
/// format attribute makes argument/format mismatches at RTPB_LOG call
/// sites compile errors instead of runtime garbage.
RTPB_PRINTF_FORMAT(1, 2) std::string log_format(const char* fmt, ...);
}  // namespace detail

#define RTPB_LOG(level, component, ...)                                             \
  do {                                                                              \
    if (::rtpb::Logger::instance().enabled(level)) {                                \
      ::rtpb::Logger::instance().write(level, component,                            \
                                       ::rtpb::detail::log_format(__VA_ARGS__));    \
    }                                                                               \
  } while (false)

#define RTPB_ERROR(component, ...) RTPB_LOG(::rtpb::LogLevel::kError, component, __VA_ARGS__)

}  // namespace rtpb
