// Temporal-slack SLO monitor.
//
// RTPB's guarantee is a *temporal* window δ per object: the backup may lag
// the primary, but never by more than δ.  This monitor watches the *margin*
// — δ minus the observed staleness — online, per object, the quantity an
// operator (or a latency fast path exploiting the slack) actually cares
// about:
//
//   * min / percentile margin over the run (how close did we sail?),
//   * near-miss counters at fixed fractions of δ (margin below 10% / 25%
//     of the window),
//   * multi-window burn rate of the violation budget: the fraction of
//     samples violating δ over a short and a long trailing window,
//     normalised by the allowed budget (SRE-style burn rate > 1 means the
//     budget is being spent faster than sustainable).
//
// Samples arrive from the replication path itself (backup applies and the
// oracle sweep) and from degradation signals (shed / missed-window /
// overload triggers) — no timers of its own, no randomness, no scheduled
// events: a pure observer, safe to enable without moving a single
// simulator event.  Steady-state accounting is O(1) per sample with no
// allocations except the margin SampleSet used for end-of-run percentiles.
//
// Exported as core.slo.* via export_to().
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "util/stats.hpp"
#include "util/time.hpp"

namespace rtpb::telemetry {

class Registry;

class SloMonitor {
 public:
  static constexpr double kNearFracTight = 0.10;  ///< near-miss: margin < 10% of δ
  static constexpr double kNearFracLoose = 0.25;  ///< near-miss: margin < 25% of δ
  /// Allowed violating fraction of samples (the error budget): burn rate =
  /// violating-fraction / budget, so > 1 burns the budget.
  static constexpr double kViolationBudget = 0.01;
  static constexpr Duration kBurnShort = seconds(1);  ///< fast-burn trailing window
  static constexpr Duration kBurnLong = seconds(10);  ///< slow-burn trailing window

  /// Trailing-window violation accounting: a ring of fixed time buckets
  /// rotated in place — O(1) per sample, no allocations.
  class BurnWindow {
   public:
    static constexpr std::size_t kBuckets = 8;

    void reset(Duration window);
    void add(TimePoint now, bool violating);
    /// Violating fraction over the trailing window (0 if no samples).
    [[nodiscard]] double violating_fraction() const;

   private:
    void rotate_to(std::int64_t bucket);

    Duration bucket_width_{};
    std::int64_t current_ = -1;  ///< absolute index of the newest bucket
    std::array<std::uint32_t, kBuckets> violations_{};
    std::array<std::uint32_t, kBuckets> samples_{};
  };

  struct ObjectSlo {
    Duration window{};          ///< most recent negotiated δ seen
    Duration min_margin = Duration::max();
    std::uint64_t samples = 0;
    std::uint64_t near_tight = 0;  ///< margin < kNearFracTight · δ
    std::uint64_t near_loose = 0;  ///< margin < kNearFracLoose · δ
    std::uint64_t violations = 0;  ///< margin < 0 (staleness exceeded δ)
    SampleSet margins_ms;          ///< retained for percentile export
    BurnWindow burn_short;
    BurnWindow burn_long;
  };

  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// One staleness observation for `object`: the backup lagged the primary
  /// by `staleness`, judged against the currently negotiated window δ.
  /// Margin = δ − staleness; negative margin is a violation sample.
  void observe(std::uint64_t object, TimePoint now, Duration staleness, Duration window);

  /// Degradation signal (shed / missed-window / overload trigger), fed by
  /// the DegradationController.  `kind` must be a string literal.
  void on_degradation_signal(TimePoint now, const char* kind);

  [[nodiscard]] std::uint64_t degradation_signals() const { return degradation_signals_; }
  [[nodiscard]] const std::map<std::uint64_t, ObjectSlo>& objects() const { return objects_; }

  /// Write the core.slo.* snapshot into `reg`: global counters plus
  /// per-object margin gauges, near-miss counters and burn rates.
  /// Call once per run (counters are add-only).
  void export_to(Registry& reg) const;

 private:
  bool enabled_ = false;
  std::uint64_t total_samples_ = 0;
  std::uint64_t total_violations_ = 0;
  std::uint64_t degradation_signals_ = 0;
  std::map<std::string, std::uint64_t> signals_by_kind_;
  std::map<std::uint64_t, ObjectSlo> objects_;
};

}  // namespace rtpb::telemetry
