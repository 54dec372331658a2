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
// Threading: a Hub belongs to one sim::Simulator and is fed only by that
// simulator's event loop, so nothing here locks.  Instruments hold plain
// values, and registry references stay valid for the registry's lifetime
// (std::map nodes never move).  The parallel engine runs many simulators
// at once but pins each to one worker for the whole run, so each Hub still
// sees exactly one thread.
//
// Events are typed, fixed-size records: interned track and name ids plus a
// few integer fields and a renderer that turns them into text.  Recording
// copies one record into a chunked ring and builds no string; the text
// exists only when an exporter or a test asks for it (name_of, detail_of,
// track_of).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/slo.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace rtpb::telemetry {

/// Causal span identifier: one per client update (object, version) pair.
/// 0 means "no span" — events carrying it are plain track events.
using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;

// ---------------------------------------------------------------------------
// Instruments.  Each holds a pointer to the owning Hub's enabled flag, so a
// disabled instrument is one load + one branch.  References handed out by
// the Registry are stable for the Registry's lifetime.
// ---------------------------------------------------------------------------

class Counter {
 public:
  explicit Counter(const bool* enabled) : enabled_(enabled) {}
  void add(std::uint64_t n = 1) {
    if (*enabled_) value_ += n;
  }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  friend class Registry;  // clear() zeroes in place
  const bool* enabled_;
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  explicit Gauge(const bool* enabled) : enabled_(enabled) {}
  void set(double v) {
    if (*enabled_) value_ = v;
  }
  [[nodiscard]] double value() const { return value_; }

 private:
  friend class Registry;
  const bool* enabled_;
  double value_ = 0.0;
};

/// Latency distribution; retains samples so exports report exact
/// quantiles (sim-scale sample counts make this affordable).
class LatencyHistogram {
 public:
  explicit LatencyHistogram(const bool* enabled) : enabled_(enabled) {}
  void record(Duration d) { record_ms(d.millis()); }
  void record_ms(double ms) {
    if (!*enabled_) return;
    samples_.add(ms);
    sum_ms_ += ms;
  }
  /// The retained samples.  A quantile read sorts them in place.
  [[nodiscard]] const SampleSet& samples() const { return samples_; }
  /// Mean in recording order: unlike samples().mean(), it does not depend
  /// on whether a quantile read has sorted the samples since.
  [[nodiscard]] double mean_ms() const {
    return samples_.empty() ? 0.0 : sum_ms_ / static_cast<double>(samples_.count());
  }

 private:
  friend class Registry;
  const bool* enabled_;
  SampleSet samples_;
  double sum_ms_ = 0.0;
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

  template <typename T>
  using Map = std::map<std::string, T, std::less<>>;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] LatencyHistogram& histogram(std::string_view name);

  /// The instrument cached in `slot`, looked up by `name` the first time.
  /// Hot paths keep the slot, so they pay one pointer test per use, and an
  /// instrument nothing touches never appears in the exports.
  [[nodiscard]] Counter& counter(Counter*& slot, std::string_view name) {
    if (slot == nullptr) slot = &counter(name);
    return *slot;
  }
  [[nodiscard]] LatencyHistogram& histogram(LatencyHistogram*& slot, std::string_view name) {
    if (slot == nullptr) slot = &histogram(name);
    return *slot;
  }
  [[nodiscard]] Gauge& gauge(Gauge*& slot, std::string_view name) {
    if (slot == nullptr) slot = &gauge(name);
    return *slot;
  }

  // Whole-map accessors for exporters, sorted by name.
  [[nodiscard]] const Map<Counter>& counters() const { return counters_; }
  [[nodiscard]] const Map<Gauge>& gauges() const { return gauges_; }
  [[nodiscard]] const Map<LatencyHistogram>& histograms() const { return histograms_; }

  /// Nested JSON of every instrument, dots becoming object levels.
  [[nodiscard]] std::string to_json() const;

  /// Zero every instrument in place: counters and gauges to 0, histogram
  /// samples dropped.  Instruments are never destroyed, so references
  /// handed out earlier stay valid.
  void clear();

 private:
  const bool* enabled_;
  Map<Counter> counters_;
  Map<Gauge> gauges_;
  Map<LatencyHistogram> histograms_;
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

/// Id of a string interned in a Hub: a track ("node1/udplite") or an event
/// name ("udp-push").  0 is the empty string.  Ids stay valid for the
/// Hub's lifetime, across clear().
using TextId = std::uint32_t;
/// Event::name of an event whose name its renderer produces (a CPU slice
/// is named "<task> #<index>").
inline constexpr TextId kRenderedName = ~TextId{0};

class Hub;
struct Event;

enum class Part : std::uint8_t { kName, kDetail };
/// Appends one text part of `e`, rendered from its typed fields.  Called
/// with Part::kDetail for every event that carries the renderer, and with
/// Part::kName only for events named kRenderedName.
using Renderer = void (*)(const Hub& hub, const Event& e, Part part, std::string& out);

/// One recorded event: a fixed-size record that owns no memory.  What the
/// fields `a`..`d` and `tag` mean is up to `render`.
struct Event {
  TimePoint at{};
  SpanId span = kNoSpan;      ///< causal span, or kNoSpan for plain track events
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint64_t d = 0;
  Renderer render = nullptr;  ///< produces the detail text; null = no detail
  std::uint32_t node = 0;     ///< originating host (0 = not node-scoped)
  TextId track = 0;           ///< timeline this renders on
  TextId name = 0;            ///< short event name, or kRenderedName
  EventKind kind = EventKind::kInstant;
  std::uint8_t tag = 0;       ///< a small selector for `render` (e.g. a fact kind)
};

/// Appends each part to `out`: integers in decimal, text (and chars) as
/// they are.  The building block of renderers.
template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  const auto one = [&out](const auto& part) {
    using T = std::decay_t<decltype(part)>;
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, char>) {
      out += std::to_string(part);
    } else {
      out += part;
    }
  };
  (one(parts), ...);
}

/// Renderer of a free-text detail: field `a` is the key Hub::keep_text
/// returned.  The text is dropped when the ring evicts the event.
void render_text(const Hub& hub, const Event& e, Part part, std::string& out);

/// The retained events, oldest first.  A view: it stays valid while the
/// Hub lives, and sees events recorded after it was taken.
class EventView {
 public:
  class iterator {
   public:
    iterator(const Hub* hub, std::size_t i) : hub_(hub), i_(i) {}
    const Event& operator*() const;
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }

   private:
    const Hub* hub_;
    std::size_t i_;
  };

  explicit EventView(const Hub& hub) : hub_(&hub) {}
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] const Event& front() const;
  [[nodiscard]] const Event& back() const;
  [[nodiscard]] iterator begin() const { return {hub_, 0}; }
  [[nodiscard]] iterator end() const { return {hub_, size()}; }

 private:
  const Hub* hub_;
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
  std::string violation{};
};

// ---------------------------------------------------------------------------
// Trace digest.
// ---------------------------------------------------------------------------

/// The run's trace digest: an FNV-1a-style hash folded over one
/// fixed-width record per reported fact whose sink table sets `digest` (Facts::emit folds it,
/// whatever the Hub's state).  Two runs of a seeded simulation are
/// behaviourally identical iff their digests match, which is what the
/// chaos harness and the explorer assert for reproducibility.  Off by
/// default; Hub::clear() leaves it alone.
class Digest {
 public:
  /// FNV-1a's offset basis: the digest of no records.
  static constexpr std::uint64_t kEmpty = 0xcbf29ce484222325ULL;

  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Fold one record as seven 64-bit words: `domain`, `fact` << 32 |
  /// `node`, `a`, `b`, `c`, `value` and `at`'s nanoseconds.  Each word is
  /// folded FNV-1a style (xor, then multiply by the FNV prime), then the
  /// high half of the digest is xored into its low half, so that a high
  /// input bit reaches every bit of later folds.  Every step is invertible,
  /// so one differing field always changes the digest.  Word-wise, a
  /// record costs seven multiplies where a byte-serial fold would cost 53.
  /// No-op while disabled.
  void fold(std::uint64_t domain, std::uint8_t fact, std::uint32_t node, std::uint64_t a,
            std::uint64_t b, std::uint64_t c, std::int64_t value, TimePoint at) {
    if (!enabled_) return;
    for (const std::uint64_t w : {domain, std::uint64_t{fact} << 32 | node, a, b, c,
                                  static_cast<std::uint64_t>(value),
                                  static_cast<std::uint64_t>(at.nanos())}) {
      digest_ = (digest_ ^ w) * kPrime;
      digest_ ^= digest_ >> 32;
    }
    ++records_;
  }

  /// The FNV-1a hash of `text`: a component's domain (so that equal fact
  /// indices of different components fold differently), or a name a fact
  /// carries in place of its Hub-interned text.
  static constexpr std::uint64_t hash(std::string_view text) {
    std::uint64_t h = kEmpty;
    for (const char ch : text) h = (h ^ static_cast<std::uint8_t>(ch)) * kPrime;
    return h;
  }

  [[nodiscard]] std::uint64_t value() const { return digest_; }
  /// Records folded while enabled.
  [[nodiscard]] std::uint64_t records() const { return records_; }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;  ///< FNV-1a's 64-bit prime

  bool enabled_ = false;
  std::uint64_t digest_ = kEmpty;
  std::uint64_t records_ = 0;
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
  /// counted in dropped_events()).  The event capacity can change only
  /// while no events are retained.
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

  /// The run's trace digest, enabled independently like the recorder.
  [[nodiscard]] Digest& digest() { return digest_; }
  [[nodiscard]] const Digest& digest() const { return digest_; }

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

  /// The retained spans, oldest (lowest id) first.
  [[nodiscard]] const std::deque<SpanInfo>& spans() const { return spans_; }
  /// The retained span `id`; null if unknown or evicted.
  [[nodiscard]] const SpanInfo* find_span(SpanId id) const;
  [[nodiscard]] std::uint64_t spans_started() const { return spans_started_; }
  [[nodiscard]] std::uint64_t spans_violated() const { return spans_violated_; }

  // ---- context ----
  /// The span currently being worked on (propagated through synchronous
  /// protocol pushes/demuxes and across simulated frame delivery).
  [[nodiscard]] SpanId current_span() const { return current_; }

  // ---- interned text ----
  /// The id of `s`, interned on first sight.
  TextId intern(std::string_view s);
  /// `slot`, interning `s` into it the first time: components cache their
  /// track and name ids this way.
  TextId intern(TextId& slot, std::string_view s) {
    if (slot == 0) slot = intern(s);
    return slot;
  }
  [[nodiscard]] std::string_view text(TextId id) const {
    return id == 0 ? std::string_view{} : std::string_view{*texts_[id - 1]};
  }
  /// Keep `detail` for one free-text event: record it with render_text
  /// and the returned key in field `a`.  Call only while enabled.
  std::uint64_t keep_text(std::string detail);
  [[nodiscard]] std::string_view kept_text(std::uint64_t key) const;
  /// Free texts currently kept (one per retained free-text event).
  [[nodiscard]] std::size_t kept_texts() const { return kept_.size(); }

  // ---- events ----
  /// Copy `e` into the ring, overwriting the oldest event once the ring
  /// holds event_capacity events.  Allocates only to add a ring chunk.
  void record(const Event& e);

  [[nodiscard]] EventView events() const { return EventView(*this); }
  [[nodiscard]] std::uint64_t recorded_events() const { return recorded_events_; }
  [[nodiscard]] std::uint64_t dropped_events() const { return dropped_events_; }

  /// The text of an event, rendered from its fields (exporters and tests).
  [[nodiscard]] std::string name_of(const Event& e) const;
  [[nodiscard]] std::string detail_of(const Event& e) const;
  [[nodiscard]] std::string_view track_of(const Event& e) const { return text(e.track); }

  /// Forget all spans, events, instrument values, flight-recorder rings and
  /// SLO accounting (not enabled state, nor the digest).
  void clear();

 private:
  friend class ScopedSpan;
  friend class EventView;

  /// Events per ring chunk; chunks are allocated as the ring grows.
  static constexpr std::size_t kChunkEvents = 1024;
  [[nodiscard]] const Event& slot(std::size_t physical) const {
    return chunks_[physical / kChunkEvents][physical % kChunkEvents];
  }
  /// The i-th retained event, oldest first.
  [[nodiscard]] const Event& event_at(std::size_t i) const {
    const std::size_t p = head_ + i;
    return slot(p < event_capacity_ ? p : p - event_capacity_);
  }

  bool enabled_ = false;
  std::function<TimePoint()> clock_;
  Registry registry_;
  FlightRecorder recorder_;
  SloMonitor slo_;
  Digest digest_;

  SpanId current_ = kNoSpan;
  SpanId next_span_ = 1;
  std::uint64_t spans_started_ = 0;
  std::uint64_t spans_violated_ = 0;

  std::size_t event_capacity_ = 0;
  std::size_t span_capacity_ = 0;
  std::uint64_t recorded_events_ = 0;
  std::uint64_t dropped_events_ = 0;
  std::vector<std::unique_ptr<Event[]>> chunks_;  ///< the ring's storage
  std::size_t head_ = 0;                          ///< ring slot of the oldest event
  std::size_t size_ = 0;                          ///< retained events

  /// Interned strings: the map owns them, ids index `texts_` (id - 1).
  std::map<std::string, TextId, std::less<>> text_ids_;
  std::vector<const std::string*> texts_;
  /// Free-text details of retained events, by keep_text() key.
  std::map<std::uint64_t, std::string> kept_;
  std::uint64_t next_kept_ = 1;

  /// Retained spans in id order.  Ids are minted consecutively and evicted
  /// oldest first, so span `id` sits at index id - spans_.front().id.
  std::deque<SpanInfo> spans_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, SpanId> by_key_;  ///< (object, version)
  std::map<std::uint64_t, SpanId> latest_;              ///< object → newest span
};

inline std::size_t EventView::size() const { return hub_->size_; }
inline const Event& EventView::front() const { return hub_->event_at(0); }
inline const Event& EventView::back() const { return hub_->event_at(hub_->size_ - 1); }
inline const Event& EventView::iterator::operator*() const { return hub_->event_at(i_); }

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
