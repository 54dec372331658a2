// Command-line reading shared by chaos_main and explore_main: walks argv
// flag by flag and parses each number whole, so a malformed value exits 2
// naming its flag instead of reading as 0 or as its numeric prefix.
#pragma once

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>

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
  /// The value as a T, read whole; exits 2 on anything else or below `min`.
  template <typename T>
  T number(T min = std::numeric_limits<T>::lowest()) {
    const char* text = value();
    const char* end = text + std::strlen(text);
    T n{};
    const auto [stop, err] = std::from_chars(text, end, n);
    if (err != std::errc{} || stop != end) fail(std::string("needs a number, got ").append(text));
    if (n < min) fail(std::string("must be at least ").append(std::to_string(min)));
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

}  // namespace rtpb::cli
