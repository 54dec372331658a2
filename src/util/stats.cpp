#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace rtpb {

void RunningStats::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  if (count_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
}

double RunningStats::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) { *this = other; return; }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double SampleSet::min() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

double SampleSet::max() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

double SampleSet::quantile(double q) const {
  RTPB_EXPECTS(q >= 0.0 && q <= 1.0);
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  if (samples_.size() == 1) return samples_[0];
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= samples_.size()) return samples_.back();
  return samples_[idx] * (1.0 - frac) + samples_[idx + 1] * frac;
}

void IntervalRecorder::open(TimePoint t) {
  if (open_) return;
  open_ = true;
  open_at_ = t;
}

void IntervalRecorder::close(TimePoint t) {
  if (!open_) return;
  RTPB_EXPECTS(t >= open_at_);
  open_ = false;
  total_ += t - open_at_;
  ++count_;
}

void IntervalRecorder::finish(TimePoint t) { close(t); }

}  // namespace rtpb
