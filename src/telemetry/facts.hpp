// One reporting path.  A component declares what can happen to it as one
// fact enum (ending in kCount) and one constexpr `fact_sinks` function,
// found by argument-dependent lookup, that says where each fact goes.
// Every site that reports is one Facts::emit call.
//
// emit always adds to the fact's total, which the component's getters
// read, and folds a fact the table marks `digest` into the Hub's trace
// digest while that is enabled, whatever else the Hub does.  While the Hub
// collects it also adds to the fact's registry counter, samples its
// histogram, sets its gauge and records its Hub event on the component's
// track; while the flight recorder runs it appends the fact's flight
// record.  Registry instruments and interned names are resolved on first
// use, so a Hub that never collects costs each fact one total and two
// branches, plus one fold per digest fact.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"

namespace rtpb::telemetry {

/// What a fact's flight record carries in `arg`.
enum class FactArg : std::uint8_t { kZero, kOne, kValue };

/// Where one fact of enum F goes besides its total.
template <typename F>
struct FactSinks {
  const char* counter = nullptr;    ///< registry counter (facts may share one)
  const char* event = nullptr;      ///< Hub event name (the renderer gives its detail)
  std::optional<FlightKind> flight{};  ///< flight record kind
  FactArg arg = FactArg::kZero;     ///< the flight record's arg
  const char* label = nullptr;      ///< the flight record's label
  const char* histogram = nullptr;  ///< registry histogram sampling `value`
  const char* gauge = nullptr;      ///< registry gauge set to `value`
  /// `value` is a duration in ns: histograms and gauges take it in ms,
  /// flight args in whole ms.
  bool duration = false;
  bool sums = false;          ///< totals and counters add `value`, not 1
  std::optional<F> also{};    ///< a fact this one also counts as
  /// Fold each occurrence into the trace digest (Digest).  Its span is
  /// never folded: spans exist only while the Hub collects.
  bool digest = false;
  /// `a` is a Hub-interned text, which also exists only while the Hub
  /// collects, so the digest folds 0 in its place.
  bool text = false;

  /// Whether the fact feeds anything while the Hub collects.
  [[nodiscard]] constexpr bool reports() const {
    return counter != nullptr || event != nullptr || flight || histogram != nullptr ||
           gauge != nullptr || also;
  }
};

/// The sink table of F, indexed by fact.
template <typename F>
inline constexpr auto kFactSinks = [] {
  std::array<FactSinks<F>, static_cast<std::size_t>(F::kCount)> table{};
  for (std::size_t i = 0; i < table.size(); ++i) table[i] = fact_sinks(static_cast<F>(i));
  return table;
}();

/// One occurrence of a fact.  `a`, `b`, `c` and `value` become the Hub
/// event's fields `a`..`d`, which the component's renderer reads; a flight
/// record takes `a`, `b` and `c` as object, version and epoch.  `value` is
/// also the histogram or gauge sample, a summing fact's increment and the
/// flight arg.
struct FactFields {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::int64_t value = 0;
  SpanId span = kNoSpan;
  std::uint32_t node = 0;         ///< the host it happened on; 0 = not node-scoped
  std::optional<TimePoint> at{};  ///< back-dates the event and digest record; default now
};

/// A component's facts: their totals, and the instruments and names they
/// report to while the Hub collects.
template <typename F>
class Facts {
 public:
  static constexpr std::size_t kCount = static_cast<std::size_t>(F::kCount);

  /// Hub events land on track "node<N>/<track>", or on `track` itself for
  /// a fact with no node; `render` formats their detail from the fields,
  /// with the fact in Event::tag.  The track also names the digest domain.
  /// Without a hub only the totals count.
  Facts(std::string track, Renderer render, Hub* hub = nullptr)
      : domain_(Digest::hash(track)), track_(std::move(track)), render_(render), hub_(hub) {}

  /// Attach the hub.  Ids resolved on first use belong to it, so it is
  /// attached once.
  void attach(Hub& hub) {
    RTPB_EXPECTS(hub_ == nullptr || hub_ == &hub);
    hub_ = &hub;
  }
  [[nodiscard]] Hub* hub() const { return hub_; }

  [[nodiscard]] std::uint64_t count(F f) const { return totals_[index(f)]; }

  /// Report `f`: add to its total, fold it into the digest if its table
  /// says so, and feed its sinks while they collect.  Inline, so a fact
  /// costs its total and the enabled branches.
  void emit(F f, const FactFields& x = {}) {
    const FactSinks<F>& s = kFactSinks<F>[index(f)];
    const std::uint64_t n = s.sums ? static_cast<std::uint64_t>(x.value) : 1;
    totals_[index(f)] += n;
    if (s.also) totals_[index(*s.also)] += n;
    if (s.digest && hub_ != nullptr && hub_->digest().enabled()) {
      hub_->digest().fold(domain_, static_cast<std::uint8_t>(f), x.node, s.text ? 0 : x.a, x.b,
                          x.c, x.value, x.at ? *x.at : hub_->now());
    }
    if (hub_ != nullptr && (hub_->enabled() ? s.reports()
                                            : s.flight && hub_->flight_recorder().enabled())) {
      report(f, FactFields(x));  // copied here, so `x` stays in registers on the fast path
    }
  }

  /// This component's track on `node`, interned on first use.  The ids
  /// of the first kCachedTracks nodes are kept; a higher node looks its
  /// track up again each time.
  TextId track(std::uint32_t node) {
    if (node >= tracks_.size()) return intern_track(node);
    if (tracks_[node] == 0) tracks_[node] = intern_track(node);
    return tracks_[node];
  }

 private:
  static constexpr std::size_t index(F f) { return static_cast<std::size_t>(f); }
  static constexpr std::size_t kCachedTracks = 16;

  TextId intern_track(std::uint32_t node) {
    if (node == 0) return hub_->intern(track_);
    return hub_->intern(
        std::string("node").append(std::to_string(node)).append("/").append(track_));
  }

  /// The registry, Hub event and flight-record sinks of emit(): one out
  /// of line body per fact, with that fact's table row folded in, so a
  /// site's fast path stays small and its slow path branches only on the
  /// Hub's state.
  void report(F f, const FactFields& x) {
    static constexpr auto kReports = []<std::size_t... I>(std::index_sequence<I...>) {
      return std::array<void (Facts::*)(const FactFields&), kCount>{
          &Facts::report<static_cast<F>(I)>...};
    }(std::make_index_sequence<kCount>{});
    (this->*kReports[index(f)])(x);
  }

  template <F f>
  [[gnu::noinline]] void report(const FactFields& x) {
    constexpr std::size_t i = index(f);
    constexpr FactSinks<F> s = kFactSinks<F>[i];
    Hub& hub = *hub_;
    const auto at = [&] { return x.at ? *x.at : hub.now(); };
    if (hub.enabled()) {
      const std::uint64_t n = s.sums ? static_cast<std::uint64_t>(x.value) : 1;
      Registry& r = hub.registry();
      if constexpr (s.counter != nullptr) r.counter(counters_[i], s.counter).add(n);
      if constexpr (s.also && kFactSinks<F>[index(*s.also)].counter != nullptr) {
        constexpr std::size_t j = index(*s.also);
        r.counter(counters_[j], kFactSinks<F>[j].counter).add(n);
      }
      const double sample =
          s.duration ? nanos(x.value).millis() : static_cast<double>(x.value);
      if constexpr (s.histogram != nullptr) {
        r.histogram(histograms_[i], s.histogram).record_ms(sample);
      }
      if constexpr (s.gauge != nullptr) r.gauge(gauges_[i], s.gauge).set(sample);
      if constexpr (s.event != nullptr) {
        hub.record({.at = at(),
                    .span = x.span,
                    .a = x.a,
                    .b = x.b,
                    .c = x.c,
                    .d = static_cast<std::uint64_t>(x.value),
                    .render = render_,
                    .node = x.node,
                    .track = track(x.node),
                    .name = hub.intern(names_[i], s.event),
                    .tag = static_cast<std::uint8_t>(f)});
      }
    }
    if constexpr (s.flight.has_value()) {
      FlightRecorder& fr = hub.flight_recorder();
      if (!fr.enabled()) return;
      std::int64_t arg = s.arg == FactArg::kOne ? 1 : 0;
      if (s.arg == FactArg::kValue) arg = s.duration ? x.value / 1'000'000 : x.value;
      fr.record({at(), x.span, x.a, x.b, x.c, arg, s.label, x.node, *s.flight});
    }
  }

  std::uint64_t domain_;  ///< this component's digest domain
  std::array<std::uint64_t, kCount> totals_{};
  std::array<Counter*, kCount> counters_{};
  std::array<LatencyHistogram*, kCount> histograms_{};
  std::array<Gauge*, kCount> gauges_{};
  std::array<TextId, kCount> names_{};  ///< each fact's Hub event name
  std::array<TextId, kCachedTracks> tracks_{};  ///< by node
  std::string track_;
  Renderer render_;
  Hub* hub_;
};

}  // namespace rtpb::telemetry
