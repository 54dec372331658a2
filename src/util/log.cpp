#include "util/log.hpp"

#include <cstdarg>

namespace rtpb {

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

namespace {

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?";
}
}  // namespace

void Logger::write(LogLevel level, const char* component, std::string msg) {
  LogRecord record;
  record.level = level;
  record.component = component;
  record.message = std::move(msg);

  if (sink_) {
    sink_(record);
    return;
  }
  std::fprintf(stderr, "%s %-10s %s\n", level_name(level), component, record.message.c_str());
}

namespace detail {

std::string log_format(const char* fmt, ...) {  // NOLINT(cert-dcl50-cpp)
  va_list args;
  va_start(args, fmt);
  va_list retry;
  va_copy(retry, args);

  char buf[512];
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n < 0) {
    va_end(retry);
    return fmt;  // encoding error: fall back to the raw format string
  }
  if (static_cast<std::size_t>(n) < sizeof buf) {
    va_end(retry);
    return std::string(buf, static_cast<std::size_t>(n));
  }
  // Message longer than the stack buffer: re-format into an exactly-sized
  // string (the old fixed buffer silently truncated here).
  std::string out(static_cast<std::size_t>(n), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, retry);
  va_end(retry);
  return out;
}

}  // namespace detail
}  // namespace rtpb
