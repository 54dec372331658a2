// trace_inspect — offline analysis of a telemetry JSONL stream.
//
// Input is the event stream written by `chaos_main --jsonl-out` (or any
// telemetry::write_jsonl output).  The tool reconstructs each causal span
// (one per client update), sorts its events into a timeline, and prints:
//
//   * per-hop latency quantiles — for every adjacent event pair observed
//     on a span (e.g. update-send → net-deliver), exact p50/p90/p99/max
//     over all spans that crossed that hop
//   * end-to-end latency quantiles (write at the primary → apply at the
//     backup) and the delivered / lost split
//   * culprit table — lost or violated updates grouped by the last event
//     they reached, i.e. which hop ate them
//   * full timelines of the K worst updates (violated first, then the
//     slowest deliveries)
//
//   trace_inspect trace.jsonl
//   trace_inspect trace.jsonl --worst 5 --hops 24
//   trace_inspect postmortem.jsonl        # post-mortem artifact
//
// Post-mortem artifacts (a {"type":"postmortem",...} header, then the
// ring's last events as the same event lines, from chaos_main --postmortem
// or explore_main --emit) are detected and rendered as an annotated
// timeline instead.  Empty or unparseable input exits non-zero with a
// diagnostic rather than printing empty sections.
//
// The parser is deliberately minimal: it understands exactly the flat
// one-object-per-line JSON that write_jsonl emits, not arbitrary JSON.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "cli.hpp"
#include "jsonl_fields.hpp"
#include "util/stats.hpp"

namespace {

using rtpb::tools::get_double;
using rtpb::tools::get_string;
using rtpb::tools::get_u64;

struct Event {
  double ts_ms = 0.0;
  std::uint64_t span = 0;
  std::uint64_t node = 0;
  std::string kind;  ///< "i" instant, "B"/"E" a CPU slice's begin/end
  std::string track;
  std::string name;
  std::string detail;
};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t object = 0;
  std::uint64_t version = 0;
  double begin_ms = 0.0;
  std::string violation;  ///< oracle name, empty if the span stayed clean
  std::vector<Event> events;
};

/// Post-mortem artifact header (its event lines follow it).
struct PostmortemHeader {
  bool present = false;
  std::string reason;
  double at_ms = 0.0;
  std::uint64_t version = 0;
  std::uint64_t recorded = 0;
  std::uint64_t retained = 0;
  std::uint64_t dropped = 0;
};

// --- reporting -----------------------------------------------------------

std::string quantile_row(const rtpb::SampleSet& s) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%8zu %9.3f %9.3f %9.3f %9.3f", s.count(),
                s.quantile(0.5), s.quantile(0.9), s.quantile(0.99), s.max());
  return buf;
}

void print_timeline(const Span& s) {
  std::printf("  span %llu  obj%llu v%llu  begin %.3f ms%s%s\n",
              static_cast<unsigned long long>(s.id),
              static_cast<unsigned long long>(s.object),
              static_cast<unsigned long long>(s.version), s.begin_ms,
              s.violation.empty() ? "" : "  VIOLATION: ", s.violation.c_str());
  for (const Event& e : s.events) {
    std::printf("    %12.3f ms  node%llu  %-18s %-16s %s\n", e.ts_ms,
                static_cast<unsigned long long>(e.node), e.track.c_str(), e.name.c_str(),
                e.detail.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::size_t worst_k = 3;
  std::size_t hop_limit = 20;

  rtpb::cli::Args args(argc, argv);
  while (args.next()) {
    const std::string& arg = args.flag();
    if (arg == "--worst") {
      worst_k = args.number<std::size_t>();
    } else if (arg == "--hops") {
      hop_limit = args.number<std::size_t>();
    } else if (arg == "--help" || arg == "-h") {
      std::cerr << "usage: " << argv[0] << " TRACE.jsonl [--worst K] [--hops N]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      return 2;
    } else {
      path = arg;
    }
  }
  if (path.empty()) {
    std::cerr << "usage: " << argv[0] << " TRACE.jsonl [--worst K] [--hops N]\n";
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }

  std::uint64_t meta_spans = 0;
  std::uint64_t meta_violated = 0;
  std::uint64_t meta_events = 0;
  std::uint64_t meta_dropped = 0;
  std::map<std::uint64_t, Span> spans;
  std::uint64_t unattributed = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  PostmortemHeader postmortem;
  std::vector<Event> timeline;  ///< a post-mortem's events, in order
  std::uint64_t lines_seen = 0;
  std::uint64_t lines_parsed = 0;

  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    ++lines_seen;
    std::string type;
    if (!get_string(line, "type", type)) continue;
    if (type != "postmortem" && type != "meta" && type != "span" && type != "event" &&
        type != "counter" && type != "gauge") {
      continue;  // someone else's JSONL (e.g. a health feed) — not ours
    }
    ++lines_parsed;
    if (type == "postmortem") {
      postmortem.present = true;
      get_string(line, "reason", postmortem.reason);
      get_double(line, "at_ms", postmortem.at_ms);
      get_u64(line, "version", postmortem.version);
      get_u64(line, "recorded", postmortem.recorded);
      get_u64(line, "retained", postmortem.retained);
      get_u64(line, "dropped", postmortem.dropped);
    } else if (type == "meta") {
      get_u64(line, "spans_started", meta_spans);
      get_u64(line, "spans_violated", meta_violated);
      get_u64(line, "events_recorded", meta_events);
      get_u64(line, "events_dropped", meta_dropped);
    } else if (type == "span") {
      Span s;
      get_u64(line, "span", s.id);
      get_u64(line, "object", s.object);
      get_u64(line, "version", s.version);
      get_double(line, "begin_ms", s.begin_ms);
      get_string(line, "violation", s.violation);
      spans.emplace(s.id, std::move(s));
    } else if (type == "event") {
      Event e;
      get_u64(line, "span", e.span);
      get_double(line, "ts_ms", e.ts_ms);
      get_u64(line, "node", e.node);
      get_string(line, "kind", e.kind);
      get_string(line, "track", e.track);
      get_string(line, "name", e.name);
      get_string(line, "detail", e.detail);
      if (postmortem.present) {
        timeline.push_back(std::move(e));
      } else if (e.span == 0) {
        ++unattributed;
      } else {
        spans[e.span].events.push_back(std::move(e));
      }
    } else if (type == "counter") {
      std::string name;
      std::uint64_t value = 0;
      if (get_string(line, "name", name) && get_u64(line, "value", value)) {
        counters[name] = value;
      }
    } else if (type == "gauge") {
      std::string name;
      double value = 0.0;
      if (get_string(line, "name", name) && get_double(line, "value", value)) {
        gauges[name] = value;
      }
    }
  }

  // Diagnose useless input loudly instead of printing empty sections: an
  // empty file and a file of unparseable lines both mean the pipeline
  // upstream is broken, and a zero-filled report would hide that.
  if (lines_seen == 0) {
    std::cerr << path << ": empty input — no JSONL lines (expected the output of "
              << "chaos_main --jsonl-out or --postmortem)\n";
    return 1;
  }
  if (lines_parsed == 0) {
    std::cerr << path << ": no parseable telemetry records in "
              << static_cast<unsigned long long>(lines_seen)
              << " line(s) — not a telemetry JSONL / post-mortem artifact\n";
    return 1;
  }

  if (postmortem.present) {
    // Post-mortem artifact: render the ring's window, newest last,
    // flagging the events that trip a post-mortem (violations, crashes).
    std::printf("post-mortem: %s\n", path.c_str());
    std::printf("reason: %s  (format v%llu, written at %.3f ms)\n", postmortem.reason.c_str(),
                static_cast<unsigned long long>(postmortem.version), postmortem.at_ms);
    std::printf("events: %llu recorded, %llu retained, %llu before the window\n",
                static_cast<unsigned long long>(postmortem.recorded),
                static_cast<unsigned long long>(postmortem.retained),
                static_cast<unsigned long long>(postmortem.dropped));
    std::map<std::string, std::size_t> by_name;
    // A CPU slice is named after its job, so slices count as one entry.
    for (const Event& e : timeline) ++by_name[e.kind == "i" ? e.name : "(cpu slice)"];
    std::printf("\nevent mix (%zu events)\n", timeline.size());
    for (const auto& [name, n] : by_name) std::printf("  %6zu  %s\n", n, name.c_str());
    std::printf("\ntimeline (oldest first)\n");
    for (const Event& e : timeline) {
      const bool hot = e.name.rfind("violation:", 0) == 0 || e.name == "crash";
      std::string detail = e.detail;
      if (e.span != 0) detail.append(" [span ").append(std::to_string(e.span)).append("]");
      std::printf("  %s %12.3f ms  node%llu  %-18s %-16s %s\n", hot ? "**" : "  ", e.ts_ms,
                  static_cast<unsigned long long>(e.node), e.track.c_str(), e.name.c_str(),
                  detail.c_str());
    }
    if (timeline.empty()) std::printf("  (no events retained)\n");
    return 0;
  }

  // Events arrive in record order; retroactive records (sched releases,
  // transmission-job phases) can be out of timestamp order, so sort each
  // span's timeline.  stable_sort keeps record order within a tick.
  for (auto& [id, s] : spans) {
    (void)id;
    std::stable_sort(s.events.begin(), s.events.end(),
                     [](const Event& a, const Event& b) { return a.ts_ms < b.ts_ms; });
  }

  // Per-hop latencies (adjacent event pairs along each span) and
  // end-to-end latency (span begin → last update-apply).
  std::map<std::string, rtpb::SampleSet> hop_latency;
  rtpb::SampleSet end_to_end;
  std::vector<const Span*> delivered;
  std::vector<const Span*> lost;
  std::vector<const Span*> violated;
  for (const auto& [id, s] : spans) {
    (void)id;
    for (std::size_t i = 1; i < s.events.size(); ++i) {
      hop_latency[s.events[i - 1].name + " -> " + s.events[i].name].add(
          s.events[i].ts_ms - s.events[i - 1].ts_ms);
    }
    double applied_at = -1.0;
    for (const Event& e : s.events) {
      if (e.name == "update-apply") applied_at = e.ts_ms;
    }
    if (applied_at >= 0.0) {
      end_to_end.add(applied_at - s.begin_ms);
      delivered.push_back(&s);
    } else {
      lost.push_back(&s);
    }
    if (!s.violation.empty()) violated.push_back(&s);
  }

  std::printf("trace: %s\n", path.c_str());
  std::printf("spans %llu (%llu violated)  events %llu (%llu dropped, %llu unattributed)\n",
              static_cast<unsigned long long>(meta_spans),
              static_cast<unsigned long long>(meta_violated),
              static_cast<unsigned long long>(meta_events),
              static_cast<unsigned long long>(meta_dropped),
              static_cast<unsigned long long>(unattributed));
  std::printf("updates: %zu delivered, %zu never applied at a backup\n\n", delivered.size(),
              lost.size());

  if (!end_to_end.empty()) {
    std::printf("end-to-end latency, write -> backup apply (ms)\n");
    std::printf("  %-44s %8s %9s %9s %9s %9s\n", "", "count", "p50", "p90", "p99", "max");
    std::printf("  %-44s %s\n\n", "write -> update-apply", quantile_row(end_to_end).c_str());
  }

  std::printf("per-hop latency (ms), %zu distinct hops", hop_latency.size());
  if (hop_latency.size() > hop_limit) {
    std::printf(" (showing the %zu busiest; --hops to widen)", hop_limit);
  }
  std::printf("\n  %-44s %8s %9s %9s %9s %9s\n", "hop", "count", "p50", "p90", "p99", "max");
  std::vector<const std::pair<const std::string, rtpb::SampleSet>*> hops;
  hops.reserve(hop_latency.size());
  for (const auto& entry : hop_latency) hops.push_back(&entry);
  std::stable_sort(hops.begin(), hops.end(),
                   [](const auto* a, const auto* b) { return a->second.count() > b->second.count(); });
  if (hops.size() > hop_limit) hops.resize(hop_limit);
  for (const auto* entry : hops) {
    std::printf("  %-44s %s\n", entry->first.c_str(), quantile_row(entry->second).c_str());
  }

  if (!lost.empty() || !violated.empty()) {
    // Which hop ate them: group doomed spans by the last event they reached.
    std::map<std::string, std::size_t> culprits;
    for (const Span* s : lost) {
      culprits[s->events.empty() ? "(no events)"
                                 : s->events.back().track + " " + s->events.back().name]++;
    }
    for (const Span* s : violated) {
      culprits["violation:" + s->violation]++;
    }
    std::vector<std::pair<std::string, std::size_t>> ranked(culprits.begin(), culprits.end());
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) { return a.second > b.second; });
    std::printf("\ntop culprits (last event reached by lost updates, plus violations)\n");
    for (const auto& [where, n] : ranked) {
      std::printf("  %6zu  %s\n", n, where.c_str());
    }
  }

  {
    // Graceful-degradation activity: shedding, QoS renegotiation, adaptive
    // timing.  Only instruments under core.degrade.* — present when the
    // trace came from a telemetry-enabled overload run.
    bool header = false;
    const auto section = [&header] {
      if (!header) std::printf("\ngraceful degradation (core.degrade.*)\n");
      header = true;
    };
    for (const auto& [name, value] : counters) {
      if (name.rfind("core.degrade.", 0) != 0) continue;
      section();
      std::printf("  %-44s %8llu\n", name.c_str(), static_cast<unsigned long long>(value));
    }
    for (const auto& [name, value] : gauges) {
      if (name.rfind("core.degrade.", 0) != 0) continue;
      section();
      std::printf("  %-44s %8.3f  (final)\n", name.c_str(), value);
    }
  }

  {
    // Durability activity: WAL appends, checkpoints, recoveries, replay
    // volume, resync path taken.  Only instruments under core.store.* —
    // present when the trace came from a telemetry-enabled durable run.
    bool header = false;
    const auto section = [&header] {
      if (!header) std::printf("\ndurability & recovery (core.store.*)\n");
      header = true;
    };
    for (const auto& [name, value] : counters) {
      if (name.rfind("core.store.", 0) != 0) continue;
      section();
      std::printf("  %-44s %8llu\n", name.c_str(), static_cast<unsigned long long>(value));
    }
    for (const auto& [name, value] : gauges) {
      if (name.rfind("core.store.", 0) != 0) continue;
      section();
      std::printf("  %-44s %8.3f  (final)\n", name.c_str(), value);
    }
  }

  if (worst_k > 0) {
    // Worst updates: every violated span first, then the slowest deliveries.
    std::vector<const Span*> worst(violated);
    std::vector<const Span*> slow(delivered);
    std::stable_sort(slow.begin(), slow.end(), [](const Span* a, const Span* b) {
      const auto span_latency = [](const Span* s) {
        return s->events.empty() ? 0.0 : s->events.back().ts_ms - s->begin_ms;
      };
      return span_latency(a) > span_latency(b);
    });
    for (const Span* s : slow) {
      if (worst.size() >= worst_k) break;
      if (std::find(worst.begin(), worst.end(), s) == worst.end()) worst.push_back(s);
    }
    if (worst.size() > worst_k) worst.resize(worst_k);
    if (!worst.empty()) {
      std::printf("\n%zu worst updates (violated first, then slowest deliveries)\n",
                  worst.size());
      for (const Span* s : worst) print_timeline(*s);
    }
  }
  return 0;
}
