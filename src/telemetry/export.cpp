#include "telemetry/export.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <string_view>

namespace rtpb::telemetry {

void json_escape_into(std::string& out, std::string_view s) {
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

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  json_escape_into(out, s);
  return out;
}

namespace {

std::string micros_ts(TimePoint t) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(t.nanos()) / 1e3);
  return buf;
}

std::string millis_ts(TimePoint t) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6f", t.millis());
  return buf;
}

std::string span_title(const SpanInfo& info) {
  return "obj" + std::to_string(info.object) + " v" + std::to_string(info.version);
}

void write_event(const Hub& hub, const Event& e, std::ostream& os) {
  os << "{\"type\":\"event\",\"span\":" << e.span << ",\"ts_ms\":" << millis_ts(e.at)
     << ",\"node\":" << e.node << ",\"kind\":\"" << event_kind_name(e.kind)
     << "\",\"track\":\"" << json_escape(hub.track_of(e)) << "\",\"name\":\""
     << json_escape(hub.name_of(e)) << "\"";
  const std::string detail = hub.detail_of(e);
  if (!detail.empty()) os << ",\"detail\":\"" << json_escape(detail) << "\"";
  os << "}\n";
}

}  // namespace

void write_chrome_trace(const Hub& hub, std::ostream& os) {
  // Stable (pid, tid) assignment: pid = originating node (0 = the
  // simulation-global process), tid = rank of the track name within its pid.
  std::map<std::uint32_t, std::map<std::string_view, int>> tid_of;
  for (const Event& e : hub.events()) tid_of[e.node].emplace(hub.track_of(e), 0);
  for (auto& [pid, tracks] : tid_of) {
    int tid = 1;
    for (auto& [track, id] : tracks) id = tid++;
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&os, &first](const std::string& json) {
    if (!first) os << ",";
    first = false;
    os << "\n" << json;
  };

  // Process / thread naming metadata.
  for (const auto& [pid, tracks] : tid_of) {
    const std::string pname = pid == 0 ? "sim" : "node" + std::to_string(pid);
    emit("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
         ",\"name\":\"process_name\",\"args\":{\"name\":\"" + json_escape(pname) + "\"}}");
    for (const auto& [track, tid] : tracks) {
      emit("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"" + json_escape(track) + "\"}}");
    }
  }

  // Track events: duration slices (CPU possession) and instants (hops).
  // First/last timestamps per span double as the async span bounds.
  std::map<SpanId, std::pair<TimePoint, TimePoint>> span_bounds;
  for (const Event& e : hub.events()) {
    if (e.span != kNoSpan) {
      auto [it, inserted] = span_bounds.try_emplace(e.span, std::make_pair(e.at, e.at));
      if (!inserted) {
        if (e.at < it->second.first) it->second.first = e.at;
        if (e.at > it->second.second) it->second.second = e.at;
      }
    }
    std::string line = "{\"ph\":\"" + std::string(event_kind_name(e.kind)) + "\",\"pid\":" +
                       std::to_string(e.node) +
                       ",\"tid\":" + std::to_string(tid_of[e.node][hub.track_of(e)]) +
                       ",\"ts\":" + micros_ts(e.at) + ",\"name\":\"" +
                       json_escape(hub.name_of(e)) + "\",\"cat\":\"rtpb\"";
    if (e.kind == EventKind::kInstant) line += ",\"s\":\"t\"";
    line += ",\"args\":{";
    line += "\"span\":" + std::to_string(e.span);
    const std::string detail = hub.detail_of(e);
    if (!detail.empty()) line += ",\"detail\":\"" + json_escape(detail) + "\"";
    line += "}}";
    emit(line);
  }

  // One nestable-async track per update span: b at mint, n per hop, e at the
  // last recorded hop.  Perfetto renders each id as one row, so an update's
  // primary → net → backup journey reads left to right.
  for (const SpanInfo& info : hub.spans()) {
    const SpanId id = info.id;
    auto bounds = span_bounds.find(id);
    const TimePoint begin = info.begin;
    const TimePoint end =
        bounds == span_bounds.end() ? info.begin : std::max(info.begin, bounds->second.second);
    std::string args = "\"object\":" + std::to_string(info.object) +
                       ",\"version\":" + std::to_string(info.version) +
                       ",\"epoch\":" + std::to_string(info.epoch);
    if (!info.violation.empty()) args += ",\"violation\":\"" + json_escape(info.violation) + "\"";
    emit("{\"ph\":\"b\",\"cat\":\"update\",\"id\":" + std::to_string(id) +
         ",\"pid\":0,\"tid\":0,\"ts\":" + micros_ts(begin) + ",\"name\":\"" +
         json_escape(span_title(info)) + "\",\"args\":{" + args + "}}");
    emit("{\"ph\":\"e\",\"cat\":\"update\",\"id\":" + std::to_string(id) +
         ",\"pid\":0,\"tid\":0,\"ts\":" + micros_ts(end) + ",\"name\":\"" +
         json_escape(span_title(info)) + "\",\"args\":{}}");
  }
  for (const Event& e : hub.events()) {
    if (e.span == kNoSpan) continue;
    emit("{\"ph\":\"n\",\"cat\":\"update\",\"id\":" + std::to_string(e.span) +
         ",\"pid\":0,\"tid\":0,\"ts\":" + micros_ts(e.at) + ",\"name\":\"" +
         json_escape(hub.name_of(e)) + "\",\"args\":{\"track\":\"" +
         json_escape(hub.track_of(e)) + "\"}}");
  }

  os << "\n]}\n";
}

void write_jsonl(const Hub& hub, std::ostream& os) {
  os << "{\"type\":\"meta\",\"spans_started\":" << hub.spans_started()
     << ",\"spans_violated\":" << hub.spans_violated()
     << ",\"events_recorded\":" << hub.recorded_events()
     << ",\"events_dropped\":" << hub.dropped_events() << "}\n";
  for (const SpanInfo& info : hub.spans()) {
    os << "{\"type\":\"span\",\"span\":" << info.id << ",\"object\":" << info.object
       << ",\"version\":" << info.version << ",\"epoch\":" << info.epoch
       << ",\"begin_ms\":" << millis_ts(info.begin);
    if (!info.violation.empty()) {
      os << ",\"violation\":\"" << json_escape(info.violation) << "\"";
    }
    os << "}\n";
  }
  for (const Event& e : hub.events()) write_event(hub, e, os);
  // End-of-run registry snapshot, one line per instrument, so downstream
  // tools (trace_inspect) can read final counters without re-deriving them
  // from the event stream.
  for (const auto& [name, counter] : hub.registry().counters()) {
    os << "{\"type\":\"counter\",\"name\":\"" << json_escape(name)
       << "\",\"value\":" << counter.value() << "}\n";
  }
  for (const auto& [name, gauge] : hub.registry().gauges()) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.6g", gauge.value());
    os << "{\"type\":\"gauge\",\"name\":\"" << json_escape(name) << "\",\"value\":" << buf
       << "}\n";
  }
}

void write_postmortem(const Hub& hub, std::ostream& os, std::string_view reason) {
  const EventView events = hub.events();
  const std::size_t retained = std::min(events.size(), Hub::kPostmortemEvents);
  os << "{\"type\":\"postmortem\",\"version\":2,\"reason\":\"" << json_escape(reason)
     << "\",\"at_ms\":" << millis_ts(hub.now()) << ",\"recorded\":" << hub.recorded_events()
     << ",\"retained\":" << retained << ",\"dropped\":" << hub.recorded_events() - retained
     << "}\n";
  for (auto it = EventView::iterator(&hub, events.size() - retained); it != events.end(); ++it) {
    write_event(hub, *it, os);
  }
}

}  // namespace rtpb::telemetry
