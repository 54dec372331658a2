// Statistics collectors used by the metrics layer and the benchmark
// harness: running moments, exact percentiles over retained samples, and
// an interval recorder for "how long was the system in state X"
// measurements (duration of backup inconsistency).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/time.hpp"

namespace rtpb {

/// Welford running mean/variance plus min/max.  O(1) space.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  void merge(const RunningStats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Retains every sample; exact quantiles by sorting on demand.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }
  void add(Duration d) { add(d.millis()); }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Quantile q in [0,1] over the sorted samples, linearly interpolated at
  /// rank position q·(n−1) (the "type 7" / numpy default estimator).  At
  /// positions that land exactly on a sample index — q = k/(n−1) — the
  /// estimate is exactly that sample, with no interpolation error; q=0.5
  /// is the median, q=0 the min, q=1 the max.
  [[nodiscard]] double quantile(double q) const;

  void clear() { samples_.clear(); sorted_ = false; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Records half-open time intervals [begin, end) during which a monitored
/// predicate held (e.g. "backup out of window"): their count and total
/// duration.  Tolerates a still-open interval at the end of a run.
class IntervalRecorder {
 public:
  /// Mark the predicate becoming true at t.  No-op if already open.
  void open(TimePoint t);
  /// Mark the predicate becoming false at t.  No-op if not open.
  void close(TimePoint t);
  /// Close any open interval at end-of-run time t.
  void finish(TimePoint t);

  [[nodiscard]] bool is_open() const { return open_; }
  [[nodiscard]] std::size_t interval_count() const { return count_; }
  [[nodiscard]] Duration total() const { return total_; }

 private:
  bool open_ = false;
  TimePoint open_at_{};
  Duration total_{};
  std::size_t count_ = 0;
};

}  // namespace rtpb
