#include "telemetry/slo.hpp"

#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"

namespace rtpb::telemetry {

void SloMonitor::BurnWindow::reset(Duration window) {
  RTPB_EXPECTS(window > Duration::zero());
  bucket_width_ = Duration{window.nanos() / static_cast<std::int64_t>(kBuckets)};
  if (bucket_width_ <= Duration::zero()) bucket_width_ = nanos(1);
  current_ = -1;
  violations_.fill(0);
  samples_.fill(0);
}

void SloMonitor::BurnWindow::rotate_to(std::int64_t bucket) {
  if (current_ < 0 || bucket - current_ >= static_cast<std::int64_t>(kBuckets)) {
    violations_.fill(0);
    samples_.fill(0);
  } else {
    for (std::int64_t b = current_ + 1; b <= bucket; ++b) {
      const auto slot = static_cast<std::size_t>(b % static_cast<std::int64_t>(kBuckets));
      violations_[slot] = 0;
      samples_[slot] = 0;
    }
  }
  current_ = bucket;
}

void SloMonitor::BurnWindow::add(TimePoint now, bool violating) {
  const std::int64_t bucket = now.nanos() / bucket_width_.nanos();
  if (bucket > current_) rotate_to(bucket);
  const auto slot =
      static_cast<std::size_t>(current_ % static_cast<std::int64_t>(kBuckets));
  ++samples_[slot];
  if (violating) ++violations_[slot];
}

double SloMonitor::BurnWindow::violating_fraction() const {
  std::uint64_t viol = 0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    viol += violations_[i];
    total += samples_[i];
  }
  return total == 0 ? 0.0 : static_cast<double>(viol) / static_cast<double>(total);
}

void SloMonitor::observe(std::uint64_t object, TimePoint now, Duration staleness,
                         Duration window) {
  if (!enabled_ || window <= Duration::zero()) return;
  auto it = objects_.find(object);
  if (it == objects_.end()) {
    it = objects_.emplace(object, ObjectSlo{}).first;
    it->second.burn_short.reset(kBurnShort);
    it->second.burn_long.reset(kBurnLong);
  }
  ObjectSlo& slo = it->second;
  slo.window = window;

  const Duration margin = window - staleness;
  if (margin < slo.min_margin) slo.min_margin = margin;
  slo.margins_ms.add(margin.millis());
  ++slo.samples;
  ++total_samples_;

  const bool violating = margin < Duration::zero();
  if (violating) {
    ++slo.violations;
    ++total_violations_;
  }
  if (margin < window.scaled(kNearFracTight)) ++slo.near_tight;
  if (margin < window.scaled(kNearFracLoose)) ++slo.near_loose;
  slo.burn_short.add(now, violating);
  slo.burn_long.add(now, violating);
}

void SloMonitor::on_degradation_signal(TimePoint /*now*/, const char* kind) {
  if (!enabled_) return;
  ++degradation_signals_;
  ++signals_by_kind_[kind];
}

void SloMonitor::export_to(Registry& reg) const {
  reg.counter("core.slo.samples").add(total_samples_);
  reg.counter("core.slo.violation_samples").add(total_violations_);
  reg.counter("core.slo.degradation_signals").add(degradation_signals_);
  for (const auto& [kind, count] : signals_by_kind_) {
    reg.counter("core.slo.signal." + kind).add(count);
  }
  for (const auto& [id, slo] : objects_) {
    const std::string prefix = "core.slo.obj" + std::to_string(id) + ".";
    reg.counter(prefix + "samples").add(slo.samples);
    reg.counter(prefix + "near_miss_tight").add(slo.near_tight);
    reg.counter(prefix + "near_miss_loose").add(slo.near_loose);
    reg.counter(prefix + "violation_samples").add(slo.violations);
    reg.gauge(prefix + "window_ms").set(slo.window.millis());
    if (slo.samples > 0) {
      reg.gauge(prefix + "margin_min_ms").set(slo.min_margin.millis());
      reg.gauge(prefix + "margin_p01_ms").set(slo.margins_ms.quantile(0.01));
      reg.gauge(prefix + "margin_p10_ms").set(slo.margins_ms.quantile(0.10));
      reg.gauge(prefix + "margin_p50_ms").set(slo.margins_ms.quantile(0.50));
    }
    reg.gauge(prefix + "burn_rate_short").set(slo.burn_short.violating_fraction() /
                                              kViolationBudget);
    reg.gauge(prefix + "burn_rate_long").set(slo.burn_long.violating_fraction() /
                                             kViolationBudget);
  }
}

}  // namespace rtpb::telemetry
