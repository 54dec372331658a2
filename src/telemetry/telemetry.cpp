#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "util/assert.hpp"

namespace rtpb::telemetry {

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kInstant: return "i";
    case EventKind::kBegin: return "B";
    case EventKind::kEnd: return "E";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> guard(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>(enabled_)).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> guard(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>(enabled_)).first;
  }
  return *it->second;
}

LatencyHistogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> guard(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<LatencyHistogram>(enabled_))
             .first;
  }
  return *it->second;
}

void Registry::clear() {
  const std::lock_guard<std::mutex> guard(mu_);
  for (auto& [name, c] : counters_) c->value_.store(0, std::memory_order_relaxed);
  for (auto& [name, g] : gauges_) g->value_.store(0.0, std::memory_order_relaxed);
  for (auto& [name, h] : histograms_) {
    const std::lock_guard<SpinLock> samples_guard(h->lock_);
    h->samples_.clear();
  }
}

namespace {

std::vector<std::string> split_dots(const std::string& name) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= name.size()) {
    const std::size_t dot = name.find('.', start);
    if (dot == std::string::npos) {
      parts.push_back(name.substr(start));
      break;
    }
    parts.push_back(name.substr(start, dot - start));
    start = dot + 1;
  }
  return parts;
}

void json_escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Emit a sorted map of (dotted name → prerendered JSON value) as nested
/// objects.  Sorted iteration means shared prefixes are adjacent, so a
/// simple open/close-brace walk over the common-prefix depth suffices.
void write_nested(std::string& out, const std::map<std::string, std::string>& leaves) {
  out += '{';
  std::vector<std::string> open;  // currently open path
  bool first_leaf = true;
  for (const auto& [name, value] : leaves) {
    std::vector<std::string> parts = split_dots(name);
    RTPB_ASSERT(!parts.empty());
    // Longest common prefix with the open path (leaf level excluded).
    std::size_t common = 0;
    while (common < open.size() && common + 1 < parts.size() && open[common] == parts[common]) {
      ++common;
    }
    for (std::size_t i = open.size(); i > common; --i) out += '}';
    open.resize(common);
    if (!first_leaf) out += ',';
    first_leaf = false;
    for (std::size_t i = common; i + 1 < parts.size(); ++i) {
      out += '"';
      json_escape_into(out, parts[i]);
      out += "\":{";
      open.push_back(parts[i]);
    }
    out += '"';
    json_escape_into(out, parts.back());
    out += "\":";
    out += value;
  }
  for (std::size_t i = open.size(); i > 0; --i) out += '}';
  out += '}';
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

std::string Registry::to_json() const {
  // Snapshot every instrument under the registry lock (so a concurrent
  // writer registering new instruments cannot invalidate iteration), then
  // render outside it.  Individual values are atomically loaded / copied
  // under their own locks, giving a coherent point-in-time view.
  std::map<std::string, std::uint64_t> counter_values;
  std::map<std::string, double> gauge_values;
  std::map<std::string, SampleSet> histogram_values;
  {
    const std::lock_guard<std::mutex> guard(mu_);
    for (const auto& [name, c] : counters_) counter_values[name] = c->value();
    for (const auto& [name, g] : gauges_) gauge_values[name] = g->value();
    for (const auto& [name, h] : histograms_) histogram_values[name] = h->snapshot();
  }

  std::map<std::string, std::string> counters;
  for (const auto& [name, v] : counter_values) {
    counters[name] = std::to_string(v);
  }
  std::map<std::string, std::string> gauges;
  for (const auto& [name, v] : gauge_values) {
    gauges[name] = format_double(v);
  }
  std::map<std::string, std::string> histograms;
  for (const auto& [name, s] : histogram_values) {
    std::string v = "{\"count\":" + std::to_string(s.count());
    v += ",\"mean_ms\":" + format_double(s.mean());
    v += ",\"p50_ms\":" + format_double(s.quantile(0.5));
    v += ",\"p90_ms\":" + format_double(s.quantile(0.9));
    v += ",\"p99_ms\":" + format_double(s.quantile(0.99));
    v += ",\"max_ms\":" + format_double(s.max());
    v += '}';
    histograms[name] = v;
  }

  std::string out = "{\"counters\":";
  write_nested(out, counters);
  out += ",\"gauges\":";
  write_nested(out, gauges);
  out += ",\"histograms\":";
  write_nested(out, histograms);
  out += '}';
  return out;
}

// ---------------------------------------------------------------------------
// Hub.
// ---------------------------------------------------------------------------

void Hub::enable(std::size_t event_capacity, std::size_t span_capacity) {
  RTPB_EXPECTS(event_capacity > 0);
  RTPB_EXPECTS(span_capacity > 0);
  if (event_capacity != event_capacity_) {
    RTPB_EXPECTS(size_ == 0);
    chunks_.clear();  // sized for the old capacity
  }
  enabled_ = true;
  event_capacity_ = event_capacity;
  span_capacity_ = span_capacity;
}

SpanId Hub::begin_span(std::uint64_t object, std::uint64_t version, std::uint64_t epoch) {
  if (!enabled_) return kNoSpan;
  const SpanId id = next_span_++;
  ++spans_started_;

  if (spans_.size() >= span_capacity_ && !span_order_.empty()) {
    const SpanId victim = span_order_.front();
    span_order_.pop_front();
    auto it = spans_.find(victim);
    if (it != spans_.end()) {
      // Either lookup may already point at a newer span for the same key
      // (versions are re-minted after a failover); leave those alone.
      auto key = by_key_.find({it->second.object, it->second.version});
      if (key != by_key_.end() && key->second == victim) by_key_.erase(key);
      auto lt = latest_.find(it->second.object);
      if (lt != latest_.end() && lt->second == victim) latest_.erase(lt);
      spans_.erase(it);
    }
  }

  SpanInfo info;
  info.id = id;
  info.object = object;
  info.version = version;
  info.epoch = epoch;
  info.begin = now();
  spans_.emplace(id, std::move(info));
  span_order_.push_back(id);
  by_key_[{object, version}] = id;
  latest_[object] = id;
  return id;
}

SpanId Hub::span_for(std::uint64_t object, std::uint64_t version) const {
  if (!enabled_) return kNoSpan;
  auto it = by_key_.find({object, version});
  return it == by_key_.end() ? kNoSpan : it->second;
}

SpanId Hub::latest_span(std::uint64_t object) const {
  if (!enabled_) return kNoSpan;
  auto it = latest_.find(object);
  return it == latest_.end() ? kNoSpan : it->second;
}

void Hub::mark_violation(SpanId span, const std::string& oracle, std::string detail) {
  if (!enabled_ || span == kNoSpan) return;
  auto it = spans_.find(span);
  if (it == spans_.end()) return;
  if (it->second.violation.empty()) {
    it->second.violation = oracle;
    ++spans_violated_;
  }
  record({.at = now(),
          .span = span,
          .a = keep_text(std::move(detail)),
          .render = &render_text,
          .track = intern("oracle"),
          .name = intern("violation:" + oracle)});
}

// ---------------------------------------------------------------------------
// Events: interned text, the chunked ring, render-on-demand.
// ---------------------------------------------------------------------------

void render_literal(const Hub& /*hub*/, const Event& e, Part /*part*/, std::string& out) {
  out += literal_of(e.a);
}

void render_text(const Hub& hub, const Event& e, Part /*part*/, std::string& out) {
  out += hub.kept_text(e.a);
}

TextId Hub::intern(std::string_view s) {
  if (s.empty()) return 0;
  auto it = text_ids_.find(s);
  if (it == text_ids_.end()) {
    it = text_ids_.emplace(std::string(s), static_cast<TextId>(texts_.size() + 1)).first;
    RTPB_ASSERT(it->second != kRenderedName);
    texts_.push_back(&it->first);
  }
  return it->second;
}

std::uint64_t Hub::keep_text(std::string detail) {
  const std::uint64_t key = next_kept_++;
  kept_.emplace(key, std::move(detail));
  return key;
}

std::string_view Hub::kept_text(std::uint64_t key) const {
  auto it = kept_.find(key);
  return it == kept_.end() ? std::string_view{} : std::string_view{it->second};
}

void Hub::record(const Event& e) {
  if (!enabled_) return;
  ++recorded_events_;
  std::size_t at = head_;
  if (size_ < event_capacity_) {
    // Still growing: head_ is 0 and slots fill in order, a chunk at a time.
    at = size_++;
    if (at / kChunkEvents == chunks_.size()) {
      const std::size_t n = std::min(kChunkEvents, event_capacity_ - at);
      chunks_.push_back(std::make_unique<Event[]>(n));
    }
  } else {
    head_ = head_ + 1 == event_capacity_ ? 0 : head_ + 1;
    ++dropped_events_;
    const Event& evicted = slot(at);
    if (evicted.render == &render_text) kept_.erase(evicted.a);
  }
  chunks_[at / kChunkEvents][at % kChunkEvents] = e;
}

std::string Hub::name_of(const Event& e) const {
  std::string out;
  if (e.name != kRenderedName) {
    out = text(e.name);
  } else if (e.render != nullptr) {
    e.render(*this, e, Part::kName, out);
  }
  return out;
}

std::string Hub::detail_of(const Event& e) const {
  std::string out;
  if (e.render != nullptr) e.render(*this, e, Part::kDetail, out);
  return out;
}

void Hub::clear() {
  current_ = kNoSpan;
  spans_started_ = 0;
  spans_violated_ = 0;
  recorded_events_ = 0;
  dropped_events_ = 0;
  head_ = 0;
  size_ = 0;
  kept_.clear();
  spans_.clear();
  span_order_.clear();
  by_key_.clear();
  latest_.clear();
  registry_.clear();
  recorder_.clear();
  slo_.clear();
}

}  // namespace rtpb::telemetry
