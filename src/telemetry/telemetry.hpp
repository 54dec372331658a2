// Unified telemetry: a metrics registry (named counters / gauges / latency
// histograms with a dotted component hierarchy) plus causal update spans.
//
// A SpanId is minted per client update at the primary and carried — via the
// Hub's scoped "current span" context — through the CPU scheduler, the
// x-kernel protocol stack, the network fabric and the backup apply path, so
// each update yields a complete latency breakdown and a lost update shows
// exactly which hop ate it.
//
// Everything here is passive and deterministic: the Hub draws no randomness,
// schedules no simulator events, and when disabled every instrument costs a
// single predicted branch.  Components therefore instrument unconditionally;
// chaos-harness trace digests are byte-identical whether or not a Hub is
// attached.
//
// Thread-safety contract (the real-clock substrate reports through this):
//   * Counter / Gauge writes are relaxed atomics — any number of concurrent
//     writer threads, no ordering implied between instruments.
//   * LatencyHistogram::record*() serialises on a per-instrument spinlock;
//     snapshot() returns a consistent copy taken under the same lock.
//   * Registry::counter()/gauge()/histogram() (find-or-create) are guarded
//     by a registry mutex; the references handed out stay stable and can be
//     used concurrently thereafter.  to_json() snapshots every instrument
//     under the registry lock, so an export racing writers sees a coherent
//     point-in-time view.
//   * Span/event recording (begin_span, record, ScopedSpan) remains
//     single-threaded by design: it is fed by the deterministic simulator
//     loop only.  enable()/disable()/clear() likewise happen outside any
//     concurrent writer window.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/slo.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace rtpb::telemetry {

/// Causal span identifier: one per client update (object, version) pair.
/// 0 means "no span" — events carrying it are plain track events.
using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;

/// Tiny test-and-set lock for per-histogram sample buffers: writers hold it
/// for a few instructions (append one double), so spinning beats a futex.
class SpinLock {
 public:
  void lock() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

// ---------------------------------------------------------------------------
// Instruments.  Each holds a pointer to the owning Hub's enabled flag, so a
// disabled instrument is one load + one branch.  References handed out by
// the Registry are stable for the Registry's lifetime.
// ---------------------------------------------------------------------------

class Counter {
 public:
  explicit Counter(const bool* enabled) : enabled_(enabled) {}
  void add(std::uint64_t n = 1) {
    if (*enabled_) value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;  // clear() zeroes in place
  const bool* enabled_;
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  explicit Gauge(const bool* enabled) : enabled_(enabled) {}
  void set(double v) {
    if (*enabled_) value_.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  const bool* enabled_;
  std::atomic<double> value_{0.0};
};

/// Latency distribution; retains samples so snapshots report exact
/// quantiles (sim-scale sample counts make this affordable).
class LatencyHistogram {
 public:
  explicit LatencyHistogram(const bool* enabled) : enabled_(enabled) {}
  void record(Duration d) { record_ms(d.millis()); }
  void record_ms(double ms) {
    if (!*enabled_) return;
    const std::lock_guard<SpinLock> guard(lock_);
    samples_.add(ms);
  }
  /// Consistent copy of the sample buffer (taken under the writer lock).
  [[nodiscard]] SampleSet snapshot() const {
    const std::lock_guard<SpinLock> guard(lock_);
    return samples_;
  }
  /// Convenience alias for snapshot(); note this copies.
  [[nodiscard]] SampleSet samples() const { return snapshot(); }

 private:
  friend class Registry;
  const bool* enabled_;
  mutable SpinLock lock_;
  SampleSet samples_;
};

/// Named-instrument registry.  Names are dotted component paths
/// ("net.link.drops", "core.backup.applies", "sched.preemptions"); the
/// JSON snapshot nests along the dots.  Instruments are created on first
/// use and live as long as the registry.
class Registry {
 public:
  explicit Registry(const bool* enabled) : enabled_(enabled) {}

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] LatencyHistogram& histogram(const std::string& name);

  // Whole-map accessors for exporters.  These return references into the
  // registry; call them only when no thread can be registering new
  // instruments (e.g. post-run export).
  [[nodiscard]] const std::map<std::string, std::unique_ptr<Counter>>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, std::unique_ptr<LatencyHistogram>>& histograms()
      const {
    return histograms_;
  }

  /// Nested-JSON snapshot of every instrument, dots becoming object levels.
  /// Safe to call while writer threads are live: instrument values are
  /// snapshotted under the registry mutex, then rendered outside it.
  [[nodiscard]] std::string to_json() const;

  /// Zero every instrument in place: counters and gauges to 0, histogram
  /// samples dropped.  Instruments are never destroyed, so references
  /// handed out earlier stay valid.
  void clear();

 private:
  const bool* enabled_;
  mutable std::mutex mu_;  ///< guards map mutation (find-or-create, clear)
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

// ---------------------------------------------------------------------------
// Span events.
// ---------------------------------------------------------------------------

enum class EventKind : std::uint8_t {
  kInstant,  ///< point event on a track (hop, drop, apply, …)
  kBegin,    ///< open a duration slice on a track (CPU job possession)
  kEnd,      ///< close the most recent open slice on the same track
};

[[nodiscard]] const char* event_kind_name(EventKind k);

struct Event {
  SpanId span = kNoSpan;   ///< causal span, or kNoSpan for plain track events
  TimePoint at{};
  std::uint32_t node = 0;  ///< originating host (0 = not node-scoped)
  EventKind kind = EventKind::kInstant;
  std::string track;       ///< timeline this renders on, e.g. "node1/udplite"
  std::string name;        ///< short event name, e.g. "udp-push"
  std::string detail;      ///< free-form context
};

struct SpanInfo {
  SpanId id = kNoSpan;
  std::uint64_t object = 0;
  std::uint64_t version = 0;
  /// Replication epoch of the primary that minted this update (0 when the
  /// producer predates epochs or does not carry one).
  std::uint64_t epoch = 0;
  TimePoint begin{};
  /// Set by mark_violation(): which oracle blamed this update, if any.
  std::string violation;
};

// ---------------------------------------------------------------------------
// Hub: the per-simulation telemetry runtime.
// ---------------------------------------------------------------------------

class Hub {
 public:
  Hub() : registry_(&enabled_) {}

  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  /// Start collecting.  At most `event_capacity` most-recent events and
  /// `span_capacity` most-recent spans are retained (older ones evicted,
  /// counted in dropped_events()).
  void enable(std::size_t event_capacity = 1u << 18, std::size_t span_capacity = 1u << 16);
  void disable() { enabled_ = false; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Timestamp source for events recorded without an explicit time; the
  /// simulator installs its virtual clock here.
  void set_clock(std::function<TimePoint()> clock) { clock_ = std::move(clock); }
  [[nodiscard]] TimePoint now() const { return clock_ ? clock_() : TimePoint{}; }

  [[nodiscard]] Registry& registry() { return registry_; }
  [[nodiscard]] const Registry& registry() const { return registry_; }

  /// Flight recorder: a fixed-capacity ring of compact binary events,
  /// enabled independently of the metrics/span machinery (it costs nothing
  /// in steady state, so chaos runs keep it on even with telemetry off).
  [[nodiscard]] FlightRecorder& flight_recorder() { return recorder_; }
  [[nodiscard]] const FlightRecorder& flight_recorder() const { return recorder_; }

  /// Temporal-slack SLO monitor (margin vs the negotiated window δ);
  /// enabled independently, exported as core.slo.* via export_to().
  [[nodiscard]] SloMonitor& slo() { return slo_; }
  [[nodiscard]] const SloMonitor& slo() const { return slo_; }

  // ---- spans ----
  /// Mint the span for update (object, version); remembers it as the
  /// object's latest span.  `epoch` tags the span with the minting
  /// primary's replication epoch.  Returns kNoSpan when disabled.
  SpanId begin_span(std::uint64_t object, std::uint64_t version, std::uint64_t epoch = 0);
  /// The span minted for (object, version); kNoSpan if unknown, evicted or disabled.
  [[nodiscard]] SpanId span_for(std::uint64_t object, std::uint64_t version) const;
  /// The most recently minted span for `object`; kNoSpan if none or disabled.
  [[nodiscard]] SpanId latest_span(std::uint64_t object) const;
  /// Blame `span` for an oracle violation: flags the SpanInfo and records a
  /// violation event attached to it.
  void mark_violation(SpanId span, const std::string& oracle, std::string detail = {});

  [[nodiscard]] const std::map<SpanId, SpanInfo>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t spans_started() const { return spans_started_; }
  [[nodiscard]] std::uint64_t spans_violated() const { return spans_violated_; }

  // ---- context ----
  /// The span currently being worked on (propagated through synchronous
  /// protocol pushes/demuxes and across simulated frame delivery).
  [[nodiscard]] SpanId current_span() const { return current_; }

  // ---- events ----
  void record(SpanId span, std::uint32_t node, EventKind kind, std::string track,
              std::string name, std::string detail = {}) {
    record_at(now(), span, node, kind, std::move(track), std::move(name), std::move(detail));
  }
  /// Record with an explicit timestamp (retroactive scheduling events).
  void record_at(TimePoint at, SpanId span, std::uint32_t node, EventKind kind,
                 std::string track, std::string name, std::string detail = {});

  [[nodiscard]] const std::deque<Event>& events() const { return events_; }
  [[nodiscard]] std::uint64_t recorded_events() const { return recorded_events_; }
  [[nodiscard]] std::uint64_t dropped_events() const { return dropped_events_; }

  /// Forget all spans, events, instrument values, flight-recorder rings and
  /// SLO accounting (not enabled state).
  void clear();

 private:
  friend class ScopedSpan;

  bool enabled_ = false;
  std::function<TimePoint()> clock_;
  Registry registry_;
  FlightRecorder recorder_;
  SloMonitor slo_;

  SpanId current_ = kNoSpan;
  SpanId next_span_ = 1;
  std::uint64_t spans_started_ = 0;
  std::uint64_t spans_violated_ = 0;

  std::size_t event_capacity_ = 0;
  std::size_t span_capacity_ = 0;
  std::uint64_t recorded_events_ = 0;
  std::uint64_t dropped_events_ = 0;
  std::deque<Event> events_;

  std::map<SpanId, SpanInfo> spans_;
  std::deque<SpanId> span_order_;                       ///< FIFO for eviction
  std::map<std::pair<std::uint64_t, std::uint64_t>, SpanId> by_key_;  ///< (object, version)
  std::map<std::uint64_t, SpanId> latest_;              ///< object → newest span
};

/// RAII "current span" context.  Protocol layers record against
/// hub.current_span() without knowing what an update is; the sender and the
/// network delivery path scope the right span around their synchronous work.
class ScopedSpan {
 public:
  ScopedSpan(Hub& hub, SpanId span) : hub_(hub), prev_(hub.current_) { hub_.current_ = span; }
  ~ScopedSpan() { hub_.current_ = prev_; }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Hub& hub_;
  SpanId prev_;
};

}  // namespace rtpb::telemetry
