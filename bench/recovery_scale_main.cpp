// recovery_scale — durability subsystem scaling baseline.
//
// Two sweeps, both oracle-checked in-binary and recorded into
// BENCH_recovery.json:
//
//   * replay cost vs WAL length: the same workload run at different
//     checkpoint budgets, then crash-restarted.  The WAL record count a
//     recovery replays is a pure function of (seed, checkpoint_every) —
//     recorded with the `_deterministic` suffix so tools/bench_report
//     gates it with --stable-only.  Replay wall-clock per sweep point is
//     informational (replay_ms_*): useful on a quiet machine, far too
//     jittery to gate on shared CI runners.
//
//   * incremental vs full resync size vs object count: a mixed workload
//     (4 hot objects, the rest cold) crash-restarts its backup inside
//     the cold quiet window.  The kStateDelta entry count must stay at
//     the dirty-set size (the 4 hot objects) no matter how many cold
//     objects the table holds — that flatness IS the incremental-rejoin
//     claim, so the binary exits non-zero if it ever tracks the table
//     size.  The full-transfer fallback (wiped devices) is measured at
//     the same points as the comparison series.
//
// Usage: recovery_scale [output.json]   (default BENCH_recovery.json)
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/harness.hpp"
#include "store/device.hpp"

namespace {

using namespace rtpb;

core::ObjectSpec bench_spec(core::ObjectId id, Duration client_period, Duration delta_p,
                            Duration delta_b) {
  core::ObjectSpec s;
  s.id = id;
  s.name = "obj" + std::to_string(id);
  s.size_bytes = 64;
  s.client_period = client_period;
  s.client_exec = micros(200);
  s.update_exec = micros(200);
  s.delta_primary = delta_p;
  s.delta_backup = delta_b;
  return s;
}

core::ServiceParams bench_params(std::uint64_t seed) {
  core::ServiceParams p;
  p.seed = seed;
  p.link.propagation = millis(1);
  p.link.jitter = micros(200);
  p.durable = true;
  return p;
}

constexpr std::size_t kHotObjects = 4;

/// Hot objects write every 10 ms; cold ones every 30 s — i.e. exactly
/// once, at registration, within these runs — so an outage dirties the
/// hot set and nothing else, at every table size.  The cold window is
/// kept tight (31 s − 30 s = 1 s) because the assigned transmission
/// period derives from the window, not the client period: ~0.5 s here,
/// so the one cold version is on the backup long before the crash.
void register_mixed(core::RtpbService& service, std::size_t objects) {
  for (std::size_t i = 0; i < objects; ++i) {
    const auto id = static_cast<core::ObjectId>(i + 1);
    const core::ObjectSpec spec =
        i < kHotObjects ? bench_spec(id, millis(10), millis(20), millis(100))
                        : bench_spec(id, seconds(30), seconds(30), seconds(31));
    if (!service.register_object(spec).ok()) {
      std::fprintf(stderr, "FAIL: object %u not admitted\n", id);
      std::exit(1);
    }
  }
}

double wall_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

struct ReplayPoint {
  std::uint64_t wal_tail_bytes = 0;  ///< log length at the crash (post-truncation)
  std::uint64_t checkpoints = 0;
  double replay_ms = 0.0;
};

/// Run 8 objects for 4 s at the given checkpoint budget, crash the
/// primary, and time its recovery (checkpoint load + WAL tail replay).
ReplayPoint replay_point(std::size_t checkpoint_every) {
  core::ServiceParams p = bench_params(17);
  p.checkpoint_every = checkpoint_every;
  core::RtpbService service(p);
  service.start();
  register_mixed(service, 8);
  service.run_for(seconds(4));

  ReplayPoint out;
  // Device size, not the lifetime append counter: checkpoints truncate
  // the log, and the truncated length is what a recovery replays.
  out.wal_tail_bytes = service.wal_device(0)->size();
  out.checkpoints = service.primary().durable()->checkpoints();

  service.crash_primary();
  service.run_for(millis(100));
  const auto start = std::chrono::steady_clock::now();
  service.restart_primary();
  out.replay_ms = wall_ms_since(start);
  if (service.primary().recoveries() != 1 || service.primary().recovery_lost_updates() != 0) {
    std::fprintf(stderr, "FAIL: cp=%zu lost %llu acked update(s) across restart\n",
                 checkpoint_every,
                 static_cast<unsigned long long>(service.primary().recovery_lost_updates()));
    std::exit(1);
  }
  return out;
}

struct ResyncPoint {
  std::uint64_t delta_entries = 0;   ///< incremental rejoin payload
  std::uint64_t full_entries = 0;    ///< full-transfer fallback payload
  std::uint64_t lost = 0;
};

/// Crash-restart the backup inside the cold quiet window; once with its
/// durable image intact (incremental path), once with wiped devices
/// (full-transfer fallback).
ResyncPoint resync_point(std::size_t objects, bool wipe) {
  core::RtpbService service(bench_params(23));
  service.start();
  register_mixed(service, objects);
  service.run_for(seconds(8));

  service.crash_backup();
  service.run_for(millis(600));
  if (wipe) {
    service.wal_device(1)->truncate();
    service.checkpoint_device(1)->truncate();
  }
  service.restart_backup(0);
  service.run_for(millis(1500));

  ResyncPoint out;
  out.delta_entries = service.primary().delta_entries_sent();
  out.full_entries = wipe ? service.backup().store().size() : 0;
  out.lost = service.backup().recovery_lost_updates();
  const bool path_ok = wipe ? service.primary().resync_fulls_sent() == 1
                            : service.primary().resync_deltas_sent() == 1;
  // Wiping the devices destroys acked state by construction — that run
  // exists to measure the full-transfer fallback, not the no-loss oracle.
  if (!path_ok || (!wipe && out.lost != 0)) {
    std::fprintf(stderr, "FAIL: objects=%zu wipe=%d took the wrong resync path or lost data\n",
                 objects, wipe ? 1 : 0);
    std::exit(1);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_recovery.json";
  rtpb::bench::banner("durability & crash recovery",
                      "WAL replay is bounded by the checkpoint budget; "
                      "incremental rejoin is O(dirty objects), not O(table)");

  rtpb::bench::JsonMetrics json("recovery");

  // ---- replay cost vs WAL length -------------------------------------
  std::printf("%-18s %16s %12s %10s\n", "checkpoint_every", "wal_tail_bytes",
              "checkpoints", "replay_ms");
  constexpr std::size_t kNoCheckpoints = 1u << 30;
  std::uint64_t tail_unbounded = 0;
  std::uint64_t tail_tight = ~0ull;
  for (const std::size_t cp : {std::size_t{16}, std::size_t{64}, std::size_t{256},
                               kNoCheckpoints}) {
    const ReplayPoint r = replay_point(cp);
    const std::string tag = cp == kNoCheckpoints ? "off" : std::to_string(cp);
    std::printf("%-18s %16llu %12llu %10.3f\n", tag.c_str(),
                static_cast<unsigned long long>(r.wal_tail_bytes),
                static_cast<unsigned long long>(r.checkpoints), r.replay_ms);
    json.add("wal_tail_bytes_cp" + tag + "_deterministic",
             static_cast<double>(r.wal_tail_bytes));
    json.add("checkpoints_cp" + tag + "_deterministic", static_cast<double>(r.checkpoints));
    json.add("replay_ms_cp" + tag, r.replay_ms);
    if (cp == kNoCheckpoints) tail_unbounded = r.wal_tail_bytes;
    if (cp == 16) tail_tight = r.wal_tail_bytes;
  }
  // Checkpoints truncate the log: the tight budget must keep the replayed
  // tail well under the checkpoint-free run's full history.
  if (tail_tight * 4 >= tail_unbounded) {
    std::fprintf(stderr, "FAIL: checkpointing did not shorten the WAL (%llu vs %llu)\n",
                 static_cast<unsigned long long>(tail_tight),
                 static_cast<unsigned long long>(tail_unbounded));
    return 1;
  }

  // ---- incremental vs full resync vs table size ----------------------
  std::printf("\n%-10s %14s %13s\n", "objects", "delta_entries", "full_entries");
  for (const std::size_t objects : {std::size_t{16}, std::size_t{64}, std::size_t{256}}) {
    const ResyncPoint inc = resync_point(objects, /*wipe=*/false);
    const ResyncPoint full = resync_point(objects, /*wipe=*/true);
    std::printf("%-10zu %14llu %13llu\n", objects,
                static_cast<unsigned long long>(inc.delta_entries),
                static_cast<unsigned long long>(full.full_entries));
    // Not "o" + to_string(): g++ 12 -O3 flags that with a false -Wrestrict.
    const std::string tag = std::string("o").append(std::to_string(objects));
    json.add("delta_entries_" + tag + "_deterministic",
             static_cast<double>(inc.delta_entries));
    json.add("full_entries_" + tag + "_deterministic",
             static_cast<double>(full.full_entries));
    // The load-bearing claim: the incremental payload tracks the dirty
    // set (the hot objects), not the table.
    if (inc.delta_entries != kHotObjects) {
      std::fprintf(stderr, "FAIL: delta carried %llu entries at %zu objects (want %zu)\n",
                   static_cast<unsigned long long>(inc.delta_entries), objects, kHotObjects);
      return 1;
    }
    if (full.full_entries != objects) {
      std::fprintf(stderr, "FAIL: full fallback carried %llu entries at %zu objects\n",
                   static_cast<unsigned long long>(full.full_entries), objects);
      return 1;
    }
  }

  json.add("lost_updates_deterministic", 0.0);
  if (!json.write(out_path)) return 1;
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
