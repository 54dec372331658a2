// Command-line reading shared by the tools (chaos_main, explore_main,
// trace_inspect, rtpb_top): walks argv
// flag by flag and parses each number whole, so a malformed value exits 2
// naming its flag instead of reading as 0 or as its numeric prefix.  An
// artifact path a run could not write is named the same way.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "util/log.hpp"
#include "util/time.hpp"

namespace rtpb::cli {

class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Step to the next flag; false past the last one.
  bool next() {
    if (++i_ >= argc_) return false;
    flag_ = argv_[i_];
    return true;
  }
  [[nodiscard]] const std::string& flag() const { return flag_; }

  /// The flag's value; exits 2 if it has none.
  const char* value() {
    if (i_ + 1 >= argc_) fail("needs a value");
    return argv_[++i_];
  }
  /// The value as a T, read whole; exits 2 on anything else, on a value
  /// below `min` and on an infinite or NaN floating-point value.
  template <typename T>
  T number(T min = std::numeric_limits<T>::lowest()) {
    const char* text = value();
    const char* end = text + std::strlen(text);
    T n{};
    const auto [stop, err] = std::from_chars(text, end, n);
    if (err != std::errc{} || stop != end) fail(std::string("needs a number, got ").append(text));
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(n)) fail(std::string("needs a finite number, got ").append(text));
    }
    if (n < min) {
      char shown[32];
      char* shown_end = std::to_chars(shown, shown + sizeof shown, min).ptr;
      fail(std::string("must be at least ").append(shown, shown_end));
    }
    return n;
  }
  Duration millis(std::int64_t min = std::numeric_limits<std::int64_t>::lowest()) {
    return rtpb::millis(number<std::int64_t>(min));
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    std::cerr << flag_ << " " << why << "\n";
    std::exit(2);
  }

  int argc_;
  char** argv_;
  int i_ = 0;
  std::string flag_;
};

/// Add the paths of `from` that `to` does not hold yet.
inline void add_unwritable(std::vector<std::string>& to, const std::vector<std::string>& from) {
  for (const std::string& path : from) {
    if (std::find(to.begin(), to.end(), path) == to.end()) to.push_back(path);
  }
}

/// Name each artifact path in `paths` on stderr; true if there is any,
/// and the tool then exits 2.
inline bool report_unwritable(const char* tool, const std::vector<std::string>& paths) {
  for (const std::string& path : paths) RTPB_ERROR(tool, "cannot write %s", path.c_str());
  return !paths.empty();
}

}  // namespace rtpb::cli
