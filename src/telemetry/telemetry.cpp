#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <vector>

#include "telemetry/export.hpp"
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

namespace {

/// The instrument named `name` in `map`, created on first use.
template <typename T>
T& find_or_create(Registry::Map<T>& map, std::string_view name, const bool* enabled) {
  auto it = map.find(name);
  if (it == map.end()) it = map.try_emplace(std::string(name), enabled).first;
  return it->second;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  return find_or_create(counters_, name, enabled_);
}

Gauge& Registry::gauge(std::string_view name) { return find_or_create(gauges_, name, enabled_); }

LatencyHistogram& Registry::histogram(std::string_view name) {
  return find_or_create(histograms_, name, enabled_);
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

/// Emit a sorted map of (dotted name → instrument) as nested objects,
/// `value` appending each instrument's JSON.  Sorted iteration means
/// shared prefixes are adjacent, so a simple open/close-brace walk over
/// the common-prefix depth suffices.
template <typename T, typename Value>
void write_nested(std::string& out, const Registry::Map<T>& leaves, Value value) {
  out += '{';
  std::vector<std::string> open;  // currently open path
  bool first_leaf = true;
  for (const auto& [name, instrument] : leaves) {
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
    value(instrument);
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
  std::string out = "{\"counters\":";
  write_nested(out, counters_, [&out](const Counter& c) { append(out, c.value()); });
  out += ",\"gauges\":";
  write_nested(out, gauges_, [&out](const Gauge& g) { out += format_double(g.value()); });
  out += ",\"histograms\":";
  write_nested(out, histograms_, [&out](const LatencyHistogram& h) {
    const SampleSet& s = h.samples();
    append(out, "{\"count\":", s.count(), ",\"mean_ms\":", format_double(h.mean_ms()),
           ",\"p50_ms\":", format_double(s.quantile(0.5)),
           ",\"p90_ms\":", format_double(s.quantile(0.9)),
           ",\"p99_ms\":", format_double(s.quantile(0.99)),
           ",\"max_ms\":", format_double(s.max()), '}');
  });
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
  ring_ = true;
  event_capacity_ = event_capacity;
  span_capacity_ = span_capacity;
}

void Hub::enable_postmortem(std::string path) {
  postmortem_ = true;
  postmortem_path_ = std::move(path);
  if (ring_) return;
  // The ring alone: allocated whole, so recording never allocates.
  ring_ = true;
  event_capacity_ = kPostmortemEvents;
  for (std::size_t at = 0; at < kPostmortemEvents; at += kChunkEvents) {
    chunks_.push_back(std::make_unique<Event[]>(kChunkEvents));
  }
}

bool Hub::trigger_postmortem(std::string_view reason) {
  if (!postmortem_) return false;
  ++postmortem_events_;
  if (postmortem_written_ || postmortem_path_.empty()) return false;
  std::ofstream out(postmortem_path_);
  if (!out) return false;
  write_postmortem(*this, out, reason);
  postmortem_written_ = true;
  postmortem_reason_ = reason;
  return true;
}

SpanId Hub::begin_span(std::uint64_t object, std::uint64_t version, std::uint64_t epoch) {
  if (!enabled_) return kNoSpan;
  const SpanId id = next_span_++;
  ++spans_started_;

  if (spans_.size() >= span_capacity_) {
    const SpanInfo& victim = spans_.front();
    // Either lookup may already point at a newer span for the same key
    // (versions are re-minted after a failover); leave those alone.
    auto key = by_key_.find({victim.object, victim.version});
    if (key != by_key_.end() && key->second == victim.id) by_key_.erase(key);
    auto lt = latest_.find(victim.object);
    if (lt != latest_.end() && lt->second == victim.id) latest_.erase(lt);
    spans_.pop_front();
  }

  spans_.push_back(
      {.id = id, .object = object, .version = version, .epoch = epoch, .begin = now()});
  by_key_[{object, version}] = id;
  latest_[object] = id;
  return id;
}

const SpanInfo* Hub::find_span(SpanId id) const {
  if (spans_.empty() || id < spans_.front().id) return nullptr;
  const SpanId index = id - spans_.front().id;
  return index < spans_.size() ? &spans_[index] : nullptr;
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

void Hub::mark_violation(SpanId span, std::string_view oracle) {
  if (!enabled_ || find_span(span) == nullptr) return;  // kNoSpan is never retained
  SpanInfo& info = spans_[span - spans_.front().id];
  if (info.violation.empty()) {
    info.violation = oracle;
    ++spans_violated_;
  }
}

// ---------------------------------------------------------------------------
// Events: interned text, the chunked ring, render-on-demand.
// ---------------------------------------------------------------------------

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

void Hub::record(const Event& e) {
  if (!ring_) return;
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

}  // namespace rtpb::telemetry
