// chaos_main — multi-seed driver for the deterministic chaos harness.
//
// Each seed is a complete experiment: a generated fault schedule, a
// generated workload, a full RtpbService run, and continuous oracle
// checking.  Exit status is 0 iff every seed finished with zero oracle
// violations; every failing seed prints its violations and a
// ready-to-paste FaultPlan reproducer.  An artifact path that cannot be
// written is named on stderr and exits 2.
//
//   chaos_main --seeds 200                # sweep seeds 0..199
//   chaos_main --seed 42                  # one seed, verbose
//   chaos_main --seeds 16 --duration-ms 30000 --intensity 2
//   chaos_main --seeds 8 --sabotage no-failover   # oracle self-test
//
// --sabotage plants a bug of chaos/sabotage.hpp's table (no-failover,
// slow-updates, split-brain, no-shedding or torn-write) and exits 0 only
// if that mode's own oracle catches it.
#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/harness.hpp"
#include "chaos/sabotage.hpp"
#include "cli.hpp"
#include "explore/explorer.hpp"
#include "psim/chaos.hpp"

namespace {

void print_violations(const std::vector<rtpb::chaos::OracleViolation>& violations,
                      const std::string& indent) {
  for (const rtpb::chaos::OracleViolation& v : violations) {
    std::cout << indent << "[" << v.at.to_string() << "] " << v.oracle << ": " << v.detail << "\n";
  }
}

/// Replay a counterexample artifact emitted by explore_main --emit.
/// Exit 0 iff the recorded oracle violation reproduces.
int replay_counterexample(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const auto ce = rtpb::explore::parse_counterexample(text.str());
  if (!ce) {
    std::cerr << path << ": not a parseable rtpb-explore counterexample\n";
    return 2;
  }
  std::cout << "replaying counterexample (" << ce->trace.size() << " decisions, oracle "
            << ce->oracle << ")\n";
  const rtpb::explore::TrajectoryResult res = rtpb::explore::replay(*ce);
  print_violations(res.violations, "  ");
  if (!rtpb::explore::reproduces(res, ce->oracle)) {
    std::cout << "counterexample did NOT reproduce '" << ce->oracle << "'\n";
    return 1;
  }
  std::cout << "counterexample reproduced '" << ce->oracle << "'\nFaultPlan reproducer:\n"
            << ce->fault_plan();
  return 0;
}

void usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [options]\n"
            << "  --seeds N          number of seeds to sweep (default 16)\n"
            << "  --first-seed S     first seed of the sweep (default 0)\n"
            << "  --seed S           run exactly one seed\n"
            << "  --duration-ms MS   virtual run length per seed (default 20000)\n"
            << "  --intensity X      fault-count multiplier (default 1.0)\n"
            << "  --objects N        objects offered per seed (default 4)\n"
            << "  --backups N        backups in the replication chain (default 1)\n"
            << "  --shards N         shard the workload over N shards and add\n"
            << "                     shard-scoped loss storms (default 1 = off)\n"
            << "  --threads N        partitioned engine: one experiment per shard\n"
            << "                     (needs --shards >= 2) in lock-stepped windows on\n"
            << "                     N workers; digests do not depend on N.  0 (the\n"
            << "                     default), or 1 with --shards 1, is the classic\n"
            << "                     path.  Shards attach no observers, so it refuses\n"
            << "                     the observer flags below (exit 2)\n"
            << "  --no-crashes       disable crash/recruit scenarios\n"
            << "  --no-batch         send one kUpdate frame per object instead of\n"
            << "                     coalescing into kUpdateBatch (different digests)\n"
            << "  --partition        partition primary from successor instead of\n"
            << "                     crashing (needs --backups >= 2; replaces crashes)\n"
            << "  --overload         enable the overload fault family (cpu_spike,\n"
            << "                     throttle_bandwidth, inflate_latency)\n"
            << "  --crash-restart    durable replicas: crash one mid-run and power it\n"
            << "                     back up from WAL + checkpoint (incremental rejoin;\n"
            << "                     replaces the plain crash family)\n"
            << "  --sabotage MODE    plant a bug (default none); exit 0 iff the oracle\n"
            << "                     in parentheses catches it:\n";
  for (const rtpb::chaos::Sabotage& s : rtpb::chaos::kSabotages) {
    std::cerr << "                       " << s.name << " (" << s.oracle << ")\n";
  }
  std::cerr << "  --telemetry        collect causal spans + metrics (per-seed summary)\n"
            << "  --trace-out FILE   write a Chrome trace (Perfetto-loadable) for the\n"
            << "                     last seed run; implies --telemetry\n"
            << "  --jsonl-out FILE   write the JSONL event stream for the last seed run\n"
            << "                     (input of trace_inspect); implies --telemetry\n"
            << "  --metrics-out FILE write the final metrics registry snapshot JSON;\n"
            << "                     implies --telemetry\n"
            << "  --flight-recorder  keep the post-mortem ring on: the telemetry event\n"
            << "                     ring (8192 events and no metrics or spans unless\n"
            << "                     --telemetry), counting its events\n"
            << "  --postmortem FILE  write the ring's last 8192 events to FILE on the\n"
            << "                     first oracle violation or crash fault (end-of-run\n"
            << "                     otherwise); implies --flight-recorder\n"
            << "  --health-out FILE  emit per-replica JSONL health snapshots (input of\n"
            << "                     rtpb_top)\n"
            << "  --health-period-ms MS  health snapshot period (default 100)\n"
            << "  --replay FILE      replay an explore_main counterexample artifact;\n"
            << "                     exit 0 iff its oracle violation reproduces\n"
            << "An artifact FILE that cannot be written is named on stderr and the run\n"
            << "exits 2.\n";
}

/// What a single seed's observers collected (a sweep prints only summaries).
void print_observers(const rtpb::chaos::SeedReport& report,
                     const rtpb::chaos::ChaosOptions& opts) {
  if (opts.telemetry) {
    std::cout << "telemetry: " << report.spans_started << " spans (" << report.spans_violated
              << " violated)\n"
              << report.metrics_json << "\n";
  }
  if (report.flight_events > 0) {
    std::cout << "flight recorder: " << report.flight_events << " events recorded";
    if (report.postmortem_written) {
      std::cout << ", post-mortem (" << report.postmortem_reason << ") -> "
                << opts.postmortem_path;
    }
    std::cout << "\n";
  }
  if (report.health_snapshots > 0) {
    std::cout << "health feed: " << report.health_snapshots << " snapshots -> "
              << opts.health_jsonl_path << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using rtpb::chaos::ChaosOptions;
  using rtpb::chaos::SeedReport;

  std::uint64_t first_seed = 0;
  std::size_t count = 16;
  std::size_t threads = 0;  // 0: no --threads flag, the classic path
  bool single = false;
  ChaosOptions opts;
  std::string sabotage = "none";
  // The first observer flag given, if any: parallel shards attach no
  // observers, so --threads refuses it instead of dropping it.
  std::string observer_flag;
  constexpr std::array<std::string_view, 7> kObserverFlags = {
      "--telemetry",       "--trace-out",  "--jsonl-out", "--metrics-out",
      "--flight-recorder", "--postmortem", "--health-out"};

  rtpb::cli::Args args(argc, argv);
  while (args.next()) {
    const std::string& arg = args.flag();
    if (observer_flag.empty() &&
        std::find(kObserverFlags.begin(), kObserverFlags.end(), arg) != kObserverFlags.end()) {
      observer_flag = arg;
    }
    if (arg == "--seeds") {
      count = args.number<std::size_t>();
    } else if (arg == "--first-seed") {
      first_seed = args.number<std::uint64_t>();
    } else if (arg == "--seed") {
      first_seed = args.number<std::uint64_t>();
      count = 1;
      single = true;
    } else if (arg == "--duration-ms") {
      opts.duration = args.millis(1);
    } else if (arg == "--intensity") {
      opts.intensity = args.number<double>(0.0);
    } else if (arg == "--objects") {
      opts.objects = args.number<std::size_t>();
    } else if (arg == "--backups") {
      opts.backups = args.number<std::size_t>(1);
    } else if (arg == "--shards") {
      opts.shards = args.number<std::size_t>(1);
    } else if (arg == "--threads") {
      threads = args.number<std::size_t>();
    } else if (arg == "--no-crashes") {
      opts.enable_crashes = false;
    } else if (arg == "--no-batch") {
      opts.config.batch_updates = false;
    } else if (arg == "--partition") {
      opts.enable_partition = true;
    } else if (arg == "--overload") {
      opts.enable_overload = true;
    } else if (arg == "--crash-restart") {
      opts.enable_crash_restart = true;
    } else if (arg == "--sabotage") {
      sabotage = args.value();
    } else if (arg == "--telemetry") {
      opts.telemetry = true;
    } else if (arg == "--trace-out") {
      opts.trace_json_path = args.value();
      opts.telemetry = true;
    } else if (arg == "--jsonl-out") {
      opts.trace_jsonl_path = args.value();
      opts.telemetry = true;
    } else if (arg == "--metrics-out") {
      opts.metrics_json_path = args.value();
      opts.telemetry = true;
    } else if (arg == "--flight-recorder") {
      opts.flight_recorder = true;
    } else if (arg == "--postmortem") {
      opts.postmortem_path = args.value();
      opts.flight_recorder = true;
    } else if (arg == "--health-out") {
      opts.health_jsonl_path = args.value();
    } else if (arg == "--health-period-ms") {
      opts.health_period = args.millis(1);
    } else if (arg == "--replay") {
      return replay_counterexample(args.value());
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage(argv[0]);
      return 2;
    }
  }

  const rtpb::chaos::Sabotage* mode = nullptr;
  if (sabotage != "none") {
    mode = rtpb::chaos::find_sabotage(sabotage);
    if (mode == nullptr) {
      std::cerr << "unknown sabotage mode: " << sabotage << "\n";
      return 2;
    }
    mode->plant(opts);
  }

  // Partitioned engine: one experiment per shard on a worker pool.  The
  // classic path stays byte-identical without --threads.
  const bool parallel = threads > 1 || (threads == 1 && opts.shards >= 2);
  if (parallel) {
    if (opts.shards < 2) {
      std::cerr << "--threads " << threads << " needs --shards >= 2 (one partition per shard)\n";
      return 2;
    }
    if (mode != nullptr) {
      std::cerr << "--sabotage is a classic-path oracle self-test; drop --threads\n";
      return 2;
    }
    if (!observer_flag.empty()) {
      std::cerr << observer_flag
                << " is not supported with --threads: parallel shards attach no observers; "
                   "replay a shard with --seed to observe it\n";
      return 2;
    }
  }

  std::size_t failing = 0;
  std::uint64_t checks = 0;
  bool caught = false;  // the sabotage's own oracle fired
  std::vector<std::string> unwritable;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t seed = first_seed + i;
    if (parallel) {
      const rtpb::psim::ParallelSeedReport report =
          rtpb::psim::run_parallel_seed(seed, opts, threads);
      std::cout << report.summary() << "\n";
      checks += report.oracle_checks();
      for (std::size_t s = 0; s < report.shard_reports.size(); ++s) {
        const SeedReport& r = report.shard_reports[s];
        if (r.ok()) continue;
        print_violations(r.violations, "  shard " + std::to_string(s) + " ");
        std::cout << "  replay: classic harness, seed " << r.seed << "\n" << r.reproducer;
      }
      if (!report.ok()) ++failing;
    } else {
      const SeedReport report = rtpb::chaos::run_seed(seed, opts);
      std::cout << report.summary() << "\n";
      if (single) print_observers(report, opts);
      checks += report.oracle_checks;
      if (!report.ok()) {
        print_violations(report.violations, "  ");
        std::cout << report.reproducer;
        ++failing;
      }
      caught = caught || (mode != nullptr && mode->caught_by(report.violations));
      rtpb::cli::add_unwritable(unwritable, report.unwritable);
    }
  }

  std::cout << "---\n"
            << count << " seeds, " << checks << " oracle checks, " << failing
            << " failing seeds\n";

  if (single && !parallel && failing > 0) {
    std::cout << "reproduce with: --seed " << first_seed << "\n";
  }
  if (rtpb::cli::report_unwritable("chaos_main", unwritable)) return 2;
  if (mode != nullptr) {
    if (!caught) {
      std::cout << "sabotage '" << mode->name << "' was NOT caught by " << mode->oracle
                << " — oracle gap!\n";
      return 1;
    }
    std::cout << "sabotage '" << mode->name << "' caught as expected\n";
    return 0;
  }
  return failing == 0 ? 0 : 1;
}
