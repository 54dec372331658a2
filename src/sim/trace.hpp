// Execution trace digest.  When tracing is enabled, components describe
// each notable event (job release/start/finish, frame fate, failover) as
// one trace line, and the recorder folds the line's bytes into an FNV-1a
// digest without storing them.  Two runs of a seeded simulation are
// behaviourally identical iff their digests match, which is what the chaos
// harness and the explorer assert for reproducibility.  The event timeline
// itself lives in the telemetry Hub.  Disabled tracing costs one branch
// per call site.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string_view>
#include <utility>

#include "util/time.hpp"

namespace rtpb::sim {

enum class TraceCategory : std::uint8_t {
  kCpu,       ///< job release / start / preempt / finish
  kNet,       ///< frame send / drop / deliver
  kProtocol,  ///< x-kernel layer events
  kService,   ///< RTPB-level: updates, failover, admission
  kUser,      ///< experiment-injected markers
};

class TraceRecorder {
 public:
  /// One trace line being folded.  `<<` appends detail pieces; integers
  /// are written in decimal, as std::to_string writes them.  The line ends
  /// (its closing 0 byte folded, recorded() bumped) when it is destroyed,
  /// normally at the end of the statement that began it.  A line begun on
  /// a disabled recorder folds nothing.
  class Line {
   public:
    Line(Line&& other) noexcept : trace_(std::exchange(other.trace_, nullptr)) {}
    Line(const Line&) = delete;
    Line& operator=(const Line&) = delete;
    Line& operator=(Line&&) = delete;
    ~Line() {
      if (trace_ == nullptr) return;
      trace_->fold_byte(0);
      ++trace_->recorded_;
    }

    Line& operator<<(std::string_view s) {
      if (trace_ != nullptr) trace_->fold(s);
      return *this;
    }
    Line& operator<<(char c) {
      if (trace_ != nullptr) trace_->fold_byte(static_cast<std::uint8_t>(c));
      return *this;
    }
    template <std::integral T>
    Line& operator<<(T v) {
      char buf[24];
      const char* end = std::to_chars(buf, buf + sizeof buf, v).ptr;
      return *this << std::string_view(buf, static_cast<std::size_t>(end - buf));
    }

   private:
    friend class TraceRecorder;
    explicit Line(TraceRecorder* trace) : trace_(trace) {}

    TraceRecorder* trace_;
  };

  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Begin a line.  Its bytes are `at` as 8 little-endian bytes, the
  /// category byte, `label`, 0, the streamed detail, 0; the terminators
  /// keep ("ab", "c") != ("a", "bc").
  Line record(TimePoint at, TraceCategory category, std::string_view label) {
    if (!enabled_) return Line{nullptr};
    const auto ns = static_cast<std::uint64_t>(at.nanos());
    for (int i = 0; i < 8; ++i) fold_byte(static_cast<std::uint8_t>(ns >> (i * 8)));
    fold_byte(static_cast<std::uint8_t>(category));
    fold(label);
    fold_byte(0);
    return Line{this};
  }

  /// FNV-1a digest folded over every line recorded while enabled.
  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  /// Total lines recorded while enabled.
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }

 private:
  static constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

  void fold_byte(std::uint8_t b) { digest_ = (digest_ ^ b) * kFnvPrime; }
  void fold(std::string_view s) {
    for (const char c : s) fold_byte(static_cast<std::uint8_t>(c));
  }

  bool enabled_ = false;
  std::uint64_t digest_ = kFnvOffset;
  std::uint64_t recorded_ = 0;
};

}  // namespace rtpb::sim
