// Phase variance (paper Definitions 1 and 2).
//
// The k-th phase variance of a task is | (I_k - I_{k-1}) - p | where I_k
// is the finish time of the k-th invocation; the phase variance v is the
// maximum over k.  The temporal-consistency theorems (1, 4, 6) are all
// stated in terms of v, so measuring it accurately on the simulated CPU is
// what lets the benches check the theory empirically.
#pragma once

#include <cstdint>
#include <optional>

#include "util/time.hpp"

namespace rtpb::sched {

class PhaseVarianceTracker {
 public:
  explicit PhaseVarianceTracker(Duration period) : period_(period) {}

  /// Record the finish time of the next invocation (must be monotone).
  void record_finish(TimePoint finish) {
    if (last_finish_) {
      const Duration gap = finish - *last_finish_;
      const Duration vk = (gap - period_).abs();
      if (vk > max_) max_ = vk;
    }
    last_finish_ = finish;
  }

  /// v_i = max_k v_i^k over everything recorded so far.
  [[nodiscard]] Duration phase_variance() const { return max_; }
  [[nodiscard]] Duration period() const { return period_; }

 private:
  Duration period_;
  std::optional<TimePoint> last_finish_;
  Duration max_{};
};

}  // namespace rtpb::sched
