// rtpb_top — terminal dashboard over the live health feed.
//
// Input is the JSONL health stream written by `chaos_main --health-out`
// (one {"type":"health",...} line per replica per tick, emitted by
// core::HealthFeed).  The tool renders a per-node panel — role, epoch,
// RTO, send-queue depth, overload / shed / degradation state — and a
// per-object panel with the temporal-consistency margins the SLO monitor
// watches (distance vs negotiated window δ).
//
//   rtpb_top health.jsonl             # post-hoc: final state + run summary
//   rtpb_top health.jsonl --at-ms 1200  # state as of a virtual instant
//   rtpb_top health.jsonl --follow    # tail a growing file, redraw per tick
//
// Like trace_inspect, empty or unparseable input exits non-zero with a
// diagnostic.  The parser understands exactly the flat JSON HealthFeed
// emits, not arbitrary JSON.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "jsonl_fields.hpp"

namespace {

using rtpb::tools::find_key;
using rtpb::tools::get_bool;
using rtpb::tools::get_double;
using rtpb::tools::get_string;
using rtpb::tools::get_u64;

struct ObjectHealth {
  double distance_ms = 0.0;
  double window_ms = 0.0;
  double margin_ms = 0.0;
  bool downgraded = false;
};

struct NodeHealth {
  double ts_ms = 0.0;
  std::string role;
  std::uint64_t epoch = 0;
  bool crashed = false;
  double rto_ms = 0.0;
  bool overloaded = false;
  std::uint64_t degradation_triggers = 0;
  std::uint64_t queue = 0;
  std::uint64_t shed = 0;
  std::uint64_t updates_sent = 0;
  std::uint64_t updates_applied = 0;
  std::uint64_t max_ack_lag = 0;  ///< max over peers and objects
};

struct Dashboard {
  double latest_ts_ms = 0.0;
  std::uint64_t snapshots = 0;
  std::map<std::uint64_t, NodeHealth> nodes;
  std::map<std::uint64_t, ObjectHealth> objects;
  // Run-wide extrema for the summary footer.
  std::map<std::uint64_t, double> worst_margin_ms;
  std::uint64_t overloaded_snapshots = 0;
};

/// Ingest one health line into the dashboard.  Returns false when the line
/// is not a health record.
bool ingest(const std::string& line, Dashboard& dash) {
  std::string type;
  if (!get_string(line, "type", type) || type != "health") return false;
  std::uint64_t node = 0;
  if (!get_u64(line, "node", node)) return false;

  NodeHealth& nh = dash.nodes[node];
  get_double(line, "ts_ms", nh.ts_ms);
  get_string(line, "role", nh.role);
  get_u64(line, "epoch", nh.epoch);
  get_bool(line, "crashed", nh.crashed);
  get_double(line, "rto_ms", nh.rto_ms);
  get_bool(line, "overloaded", nh.overloaded);
  get_u64(line, "degradation_triggers", nh.degradation_triggers);
  get_u64(line, "queue", nh.queue);
  get_u64(line, "shed", nh.shed);
  get_u64(line, "updates_sent", nh.updates_sent);
  get_u64(line, "updates_applied", nh.updates_applied);
  if (nh.overloaded) ++dash.overloaded_snapshots;
  if (nh.ts_ms > dash.latest_ts_ms) dash.latest_ts_ms = nh.ts_ms;
  ++dash.snapshots;

  // Peer ack-lag entries: scan each {"node":..,"max_ack_lag":..} pair.
  nh.max_ack_lag = 0;
  const std::size_t peers_at = line.find("\"peers\":[");
  if (peers_at != std::string::npos) {
    std::size_t pos = peers_at;
    std::uint64_t lag = 0;
    while ((pos = find_key(line, "max_ack_lag", pos)) != std::string::npos) {
      lag = std::strtoull(line.c_str() + pos, nullptr, 10);
      if (lag > nh.max_ack_lag) nh.max_ack_lag = lag;
    }
  }

  // Per-object entries (only on the acting primary's line).
  std::size_t obj_at = line.find("\"objects\":[");
  if (obj_at != std::string::npos) {
    std::size_t pos = obj_at;
    std::uint64_t id = 0;
    while ((pos = find_key(line, "id", pos)) != std::string::npos) {
      id = std::strtoull(line.c_str() + pos, nullptr, 10);
      ObjectHealth& oh = dash.objects[id];
      get_double(line, "distance_ms", oh.distance_ms, pos);
      get_double(line, "window_ms", oh.window_ms, pos);
      get_double(line, "margin_ms", oh.margin_ms, pos);
      get_bool(line, "downgraded", oh.downgraded, pos);
      auto [it, inserted] = dash.worst_margin_ms.try_emplace(id, oh.margin_ms);
      if (!inserted && oh.margin_ms < it->second) it->second = oh.margin_ms;
    }
  }
  return true;
}

void render(const Dashboard& dash, bool follow) {
  if (follow) std::printf("\x1b[2J\x1b[H");  // clear + home
  std::printf("rtpb_top — t = %.1f ms  (%llu snapshots)\n", dash.latest_ts_ms,
              static_cast<unsigned long long>(dash.snapshots));
  std::printf("\n%-6s %-8s %6s %8s %9s %6s %6s %8s %8s %8s\n", "node", "role", "epoch",
              "rto_ms", "overload", "queue", "shed", "sent", "applied", "ack-lag");
  for (const auto& [node, nh] : dash.nodes) {
    std::printf("%-6llu %-8s %6llu %8.2f %9s %6llu %6llu %8llu %8llu %8llu%s\n",
                static_cast<unsigned long long>(node),
                nh.crashed ? "CRASHED" : nh.role.c_str(),
                static_cast<unsigned long long>(nh.epoch), nh.rto_ms,
                nh.overloaded ? "YES" : "-", static_cast<unsigned long long>(nh.queue),
                static_cast<unsigned long long>(nh.shed),
                static_cast<unsigned long long>(nh.updates_sent),
                static_cast<unsigned long long>(nh.updates_applied),
                static_cast<unsigned long long>(nh.max_ack_lag),
                nh.degradation_triggers > 0 ? "  !degraded" : "");
  }
  if (!dash.objects.empty()) {
    std::printf("\n%-8s %12s %12s %12s %12s  %s\n", "object", "distance_ms", "window_ms",
                "margin_ms", "worst_margin", "state");
    for (const auto& [id, oh] : dash.objects) {
      const auto worst = dash.worst_margin_ms.find(id);
      const char* state = oh.margin_ms < 0.0          ? "VIOLATING"
                          : oh.downgraded             ? "downgraded"
                          : oh.margin_ms < oh.window_ms * 0.25 ? "near-miss"
                                                      : "ok";
      std::printf("%-8llu %12.3f %12.3f %12.3f %12.3f  %s\n",
                  static_cast<unsigned long long>(id), oh.distance_ms, oh.window_ms,
                  oh.margin_ms,
                  worst == dash.worst_margin_ms.end() ? oh.margin_ms : worst->second, state);
    }
  }
  std::printf("\noverloaded in %llu snapshot(s) over the run\n",
              static_cast<unsigned long long>(dash.overloaded_snapshots));
  std::fflush(stdout);
}

void usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " HEALTH.jsonl [--follow] [--at-ms MS]\n"
            << "  --follow      tail the file, redrawing as new snapshots arrive\n"
            << "  --at-ms MS    post-hoc: render the state as of virtual instant MS\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool follow = false;
  double at_ms = -1.0;

  rtpb::cli::Args args(argc, argv);
  while (args.next()) {
    const std::string& arg = args.flag();
    if (arg == "--follow") {
      follow = true;
    } else if (arg == "--at-ms") {
      at_ms = args.number<double>(0.0);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      usage(argv[0]);
      return 2;
    } else {
      path = arg;
    }
  }
  if (path.empty()) {
    usage(argv[0]);
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }

  Dashboard dash;
  std::uint64_t lines_seen = 0;
  std::string line;

  if (follow) {
    // Tail loop: drain available lines, redraw, sleep, repeat.  Ends at
    // EOF only when the file stops growing AND stdin is closed — in
    // practice the user interrupts; each drained batch redraws once.
    std::uint64_t quiet_polls = 0;
    while (true) {
      bool advanced = false;
      while (std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        ++lines_seen;
        if (ingest(line, dash)) advanced = true;
      }
      in.clear();  // clear EOF so the next getline retries
      if (advanced) {
        render(dash, /*follow=*/true);
        quiet_polls = 0;
      } else if (++quiet_polls > 50) {
        break;  // ~5 s with no growth: assume the run is over
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  } else {
    while (std::getline(in, line)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      ++lines_seen;
      if (at_ms >= 0.0) {
        double ts = 0.0;
        if (get_double(line, "ts_ms", ts) && ts > at_ms) continue;
      }
      ingest(line, dash);
    }
  }

  if (lines_seen == 0) {
    std::cerr << path << ": empty input — no JSONL lines (expected the output of "
              << "chaos_main --health-out)\n";
    return 1;
  }
  if (dash.snapshots == 0) {
    std::cerr << path << ": no parseable health records in "
              << static_cast<unsigned long long>(lines_seen)
              << " line(s) — not a HealthFeed JSONL stream\n";
    return 1;
  }
  if (!follow) render(dash, /*follow=*/false);
  return 0;
}
