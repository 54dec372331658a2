#include "core/metrics.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace rtpb::core {

void Metrics::track_object(ObjectId id, Duration window, Duration client_period) {
  ObjectTrack& t = objects_[id];
  t.window = window;
  t.client_period = client_period;
}

void Metrics::ObjectTrack::refresh(TimePoint now) {
  if (!primary_written || !backup_applied) return;
  const Duration distance = primary_ts - backup_origin_ts;
  max_distance = std::max(max_distance, distance);
  if (distance > window) {
    inconsistency.open(now);
  } else {
    inconsistency.close(now);
  }
}

void Metrics::on_primary_write(ObjectId id, TimePoint ts) {
  ObjectTrack* t = objects_.find(id);
  if (t == nullptr) return;
  t->primary_ts = std::max(t->primary_ts, ts);
  t->primary_written = true;
  t->refresh(ts);
}

void Metrics::on_backup_apply(ObjectId id, TimePoint origin_ts, TimePoint now) {
  ObjectTrack* t = objects_.find(id);
  if (t == nullptr) return;
  t->backup_origin_ts = std::max(t->backup_origin_ts, origin_ts);
  t->backup_applied = true;
  t->refresh(now);
}

void Metrics::poll(TimePoint now) {
  for (auto& [id, t] : objects_) t.refresh(now);
}

void Metrics::finish(TimePoint now) {
  for (auto& [id, t] : objects_) {
    // An object the backup never caught up on has been maximally stale.
    if (t.primary_written && !t.backup_applied) {
      t.max_distance = std::max(t.max_distance, t.primary_ts - t.backup_origin_ts);
    }
    t.inconsistency.finish(now);
  }
}

void Metrics::reset_statistics() {
  response_times_.clear();
  for (auto& [id, t] : objects_) {
    t.max_distance = Duration::zero();
    const bool was_open = t.inconsistency.is_open();
    t.inconsistency = IntervalRecorder{};
    // If reset lands mid-violation, keep the interval open from the reset
    // point so its tail still counts.
    if (was_open) t.inconsistency.open(TimePoint::zero());
  }
}

double Metrics::average_max_distance_ms() const {
  if (objects_.empty()) return 0.0;
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& [id, t] : objects_) {
    if (!t.primary_written) continue;
    sum += t.max_distance.millis();
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double Metrics::average_max_excess_distance_ms() const {
  if (objects_.empty()) return 0.0;
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& [id, t] : objects_) {
    if (!t.primary_written) continue;
    sum += std::max(Duration::zero(), t.max_distance - t.client_period).millis();
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double Metrics::mean_inconsistency_duration_ms() const {
  double total_ms = 0.0;
  std::uint64_t intervals = 0;
  for (const auto& [id, t] : objects_) {
    total_ms += t.inconsistency.total().millis();
    intervals += t.inconsistency.interval_count();
  }
  return intervals > 0 ? total_ms / static_cast<double>(intervals) : 0.0;
}

Duration Metrics::total_inconsistency() const {
  Duration total{};
  for (const auto& [id, t] : objects_) total += t.inconsistency.total();
  return total;
}

std::uint64_t Metrics::inconsistency_intervals() const {
  std::uint64_t n = 0;
  for (const auto& [id, t] : objects_) n += t.inconsistency.interval_count();
  return n;
}

const Metrics::ObjectTrack& Metrics::track(ObjectId id) const {
  const ObjectTrack* t = objects_.find(id);
  RTPB_EXPECTS(t != nullptr);
  return *t;
}

Duration Metrics::max_distance(ObjectId id) const {
  return track(id).max_distance;
}

bool Metrics::in_violation(ObjectId id) const {
  return track(id).inconsistency.is_open();
}

Duration Metrics::current_distance(ObjectId id) const {
  const ObjectTrack& t = track(id);
  if (!t.primary_written || !t.backup_applied) return Duration::zero();
  return t.primary_ts - t.backup_origin_ts;
}

Duration Metrics::window_of(ObjectId id) const {
  return track(id).window;
}

}  // namespace rtpb::core
