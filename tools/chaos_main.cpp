// chaos_main — multi-seed driver for the deterministic chaos harness.
//
// Each seed is a complete experiment: a generated fault schedule, a
// generated workload, a full RtpbService run, and continuous oracle
// checking.  Exit status is 0 iff every seed finished with zero oracle
// violations; every failing seed prints its violations and a
// ready-to-paste FaultPlan reproducer.
//
//   chaos_main --seeds 200                # sweep seeds 0..199
//   chaos_main --seed 42                  # one seed, verbose
//   chaos_main --seeds 16 --duration-ms 30000 --intensity 2
//   chaos_main --seeds 8 --sabotage no-failover   # oracle self-test
//
// The --sabotage modes deliberately break the service to prove the
// oracles catch real bugs: `no-failover` lobotomises the failure
// detector so a primary crash is never failed over (exactly-one-primary
// must fire), `slow-updates` forces an 800 ms transmission period that
// dwarfs every negotiated window (staleness-window must fire),
// `split-brain` disables epoch fencing under a primary↔successor
// partition so the deposed primary keeps feeding stale-epoch updates to
// the surviving backup (cross-epoch-apply must fire), and `no-shedding`
// turns graceful degradation off under pure overload faults so windows
// are violated with no renegotiation notice (no-silent-violation must
// fire).
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "chaos/harness.hpp"
#include "explore/explorer.hpp"
#include "psim/chaos.hpp"
#include "util/log.hpp"

namespace {

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
  for (const rtpb::chaos::OracleViolation& v : res.violations) {
    std::cout << "  [" << v.at.to_string() << "] " << v.oracle << ": " << v.detail << "\n";
  }
  if (!rtpb::explore::reproduces(res, ce->oracle)) {
    std::cout << "counterexample did NOT reproduce '" << ce->oracle << "'\n";
    return 1;
  }
  std::cout << "counterexample reproduced '" << ce->oracle << "'\n";
  std::cout << "FaultPlan reproducer:\n" << ce->fault_plan();
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
            << "                     shard-scoped loss storms (default 1 = off;\n"
            << "                     1 keeps digests identical to unsharded builds)\n"
            << "  --threads N        partitioned engine — one experiment per\n"
            << "                     shard (needs --shards >= 2), advanced in\n"
            << "                     lock-stepped lookahead windows on N workers;\n"
            << "                     per-shard digests are thread-count-invariant,\n"
            << "                     so N = 1 is the one-worker reference.  Without\n"
            << "                     --threads (N = 0), or at N = 1 with --shards 1,\n"
            << "                     the run takes the classic sequential path,\n"
            << "                     byte-identical to previous builds.  Shards\n"
            << "                     attach no observers: the partitioned engine\n"
            << "                     refuses the observer flags below (exit 2)\n"
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
            << "  --sabotage MODE    none | no-failover | slow-updates | split-brain |\n"
            << "                     no-shedding | torn-write\n"
            << "  --log-warnings     keep service WARN lines (hidden by default)\n"
            << "  --telemetry        collect causal spans + metrics (per-seed summary)\n"
            << "  --trace-out FILE   write a Chrome trace (Perfetto-loadable) for the\n"
            << "                     last seed run; implies --telemetry\n"
            << "  --jsonl-out FILE   write the JSONL event stream for the last seed run\n"
            << "                     (input of trace_inspect); implies --telemetry\n"
            << "  --metrics-out FILE write the final metrics registry snapshot JSON;\n"
            << "                     implies --telemetry\n"
            << "  --flight-recorder  keep the in-memory flight recorder on (events\n"
            << "                     ride the ring even if nothing is dumped)\n"
            << "  --postmortem FILE  dump a post-mortem artifact of the last-N flight\n"
            << "                     events on the first oracle violation or crash\n"
            << "                     fault (end-of-run otherwise); implies the recorder\n"
            << "  --health-out FILE  emit per-replica JSONL health snapshots (input of\n"
            << "                     rtpb_top)\n"
            << "  --health-period-ms MS  health snapshot period (default 100)\n"
            << "  --replay FILE      replay an explore_main counterexample artifact;\n"
            << "                     exit 0 iff its oracle violation reproduces\n";
}

}  // namespace

int main(int argc, char** argv) {
  using rtpb::chaos::ChaosOptions;

  std::uint64_t first_seed = 0;
  std::size_t count = 16;
  std::size_t threads = 0;  // 0: no --threads flag, the classic path
  bool single = false;
  bool log_warnings = false;
  ChaosOptions opts;
  std::string sabotage = "none";
  // The first observer flag given, if any: parallel shards attach no
  // observers, so --threads refuses it instead of dropping it.
  std::string observer_flag;
  constexpr std::array<std::string_view, 7> kObserverFlags = {
      "--telemetry",       "--trace-out",  "--jsonl-out", "--metrics-out",
      "--flight-recorder", "--postmortem", "--health-out"};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (observer_flag.empty() &&
        std::find(kObserverFlags.begin(), kObserverFlags.end(), arg) != kObserverFlags.end()) {
      observer_flag = arg;
    }
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      count = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--first-seed") {
      first_seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seed") {
      first_seed = std::strtoull(next(), nullptr, 10);
      count = 1;
      single = true;
    } else if (arg == "--duration-ms") {
      opts.duration = rtpb::millis(std::strtoll(next(), nullptr, 10));
    } else if (arg == "--intensity") {
      opts.intensity = std::strtod(next(), nullptr);
    } else if (arg == "--objects") {
      opts.objects = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--backups") {
      opts.backups = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--shards") {
      opts.shards = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--threads") {
      threads = std::strtoull(next(), nullptr, 10);
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
      sabotage = next();
    } else if (arg == "--log-warnings") {
      log_warnings = true;
    } else if (arg == "--telemetry") {
      opts.telemetry = true;
    } else if (arg == "--trace-out") {
      opts.trace_json_path = next();
      opts.telemetry = true;
    } else if (arg == "--jsonl-out") {
      opts.trace_jsonl_path = next();
      opts.telemetry = true;
    } else if (arg == "--metrics-out") {
      opts.metrics_json_path = next();
      opts.telemetry = true;
    } else if (arg == "--flight-recorder") {
      opts.flight_recorder = true;
    } else if (arg == "--postmortem") {
      opts.postmortem_path = next();
      opts.flight_recorder = true;
    } else if (arg == "--health-out") {
      opts.health_jsonl_path = next();
    } else if (arg == "--health-period-ms") {
      opts.health_period = rtpb::millis(std::strtoll(next(), nullptr, 10));
    } else if (arg == "--replay") {
      return replay_counterexample(next());
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage(argv[0]);
      return 2;
    }
  }

  // Chaos runs *cause* checksum failures and dead links on purpose; the
  // per-event WARN stream would drown the per-seed summaries.
  if (!log_warnings) {
    rtpb::Logger::instance().set_level(rtpb::LogLevel::kError);
  }

  if (sabotage == "no-failover") {
    // Failure detector never declares: a crashed primary stays dead and
    // unreplaced.  exactly-one-primary must catch this on crash seeds.
    opts.config.ping_max_misses = 1000000;
    opts.crash_probability = 1.0;
    opts.crash_backup_bias = 0.0;  // always crash the primary
  } else if (sabotage == "slow-updates") {
    // Transmission period far beyond every negotiated window: distances
    // grow unbounded with zero faults.  staleness-window must catch it.
    opts.config.update_period_override = rtpb::millis(800);
    opts.config.admission_control_enabled = false;
    opts.enable_loss_storms = false;
    opts.enable_link_faults = false;
    opts.enable_crashes = false;
  } else if (sabotage == "split-brain") {
    // Epoch fencing off under a primary↔successor partition: the deposed
    // primary never steps down and keeps feeding stale-epoch updates to
    // the surviving backup, which applies whichever versions run ahead.
    // cross-epoch-apply must catch this.
    opts.config.epoch_fencing = false;
    opts.backups = 2;
    opts.enable_partition = true;
    opts.enable_crashes = false;
  } else if (sabotage == "no-shedding") {
    // Graceful degradation off under pure overload: the primary silently
    // violates windows it never renegotiated.  no-silent-violation must
    // catch this.  Other fault families are disabled so their declared
    // epochs cannot excuse (or cause) the violations being judged.
    opts.config.degradation_enabled = false;
    opts.enable_overload = true;
    opts.enable_loss_storms = false;
    opts.enable_link_faults = false;
    opts.enable_crashes = false;
  } else if (sabotage == "torn-write") {
    // Shear bytes off the downed replica's WAL mid-outage: the recovered
    // image misses client-acked versions.  durable-recovery must catch it.
    // Other fault families are off so every run is a crash-restart arc.
    opts.enable_crash_restart = true;
    opts.torn_tail_bytes = 512;
    opts.enable_loss_storms = false;
    opts.enable_link_faults = false;
    opts.enable_crashes = false;
  } else if (sabotage != "none") {
    std::cerr << "unknown sabotage mode: " << sabotage << "\n";
    return 2;
  }

  if (threads > 1 || (threads == 1 && opts.shards >= 2)) {
    // Partitioned engine: one experiment per shard on a worker pool.  The
    // classic path below stays byte-identical without --threads.
    if (opts.shards < 2) {
      std::cerr << "--threads " << threads << " needs --shards >= 2 (one partition per shard)\n";
      return 2;
    }
    if (sabotage != "none") {
      std::cerr << "--sabotage is a classic-path oracle self-test; drop --threads\n";
      return 2;
    }
    if (!observer_flag.empty()) {
      std::cerr << observer_flag
                << " is not supported with --threads: parallel shards attach no observers; "
                   "replay a shard with --seed to observe it\n";
      return 2;
    }
    const rtpb::psim::ParallelSweepResult result =
        rtpb::psim::run_parallel_sweep(first_seed, count, opts, threads, &std::cout);
    std::cout << "---\n"
              << result.seeds_run << " seeds, " << result.total_checks << " oracle checks, "
              << result.failures.size() << " failing seeds\n";
    return result.ok() ? 0 : 1;
  }

  rtpb::chaos::SweepResult result;
  if (single) {
    // Single-seed mode runs directly so the telemetry summary is printed
    // even when the seed passes (run_sweep only keeps failing reports).
    rtpb::chaos::SeedReport report = rtpb::chaos::run_seed(first_seed, opts);
    result.seeds_run = 1;
    result.total_checks = report.oracle_checks;
    std::cout << report.summary() << "\n";
    if (opts.telemetry) {
      std::cout << "telemetry: " << report.spans_started << " spans ("
                << report.spans_violated << " violated)\n"
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
    if (!report.ok()) {
      for (const rtpb::chaos::OracleViolation& v : report.violations) {
        std::cout << "  [" << v.at.to_string() << "] " << v.oracle << ": " << v.detail << "\n";
      }
      std::cout << report.reproducer;
      result.failures.push_back(std::move(report));
    }
  } else {
    result = rtpb::chaos::run_sweep(first_seed, count, opts, &std::cout);
  }

  std::cout << "---\n"
            << result.seeds_run << " seeds, " << result.total_checks
            << " oracle checks, " << result.failures.size() << " failing seeds\n";

  if (single && !result.failures.empty()) {
    std::cout << "reproduce with: --seed " << first_seed << "\n";
  }
  if (sabotage != "none") {
    // Self-test: sabotage SHOULD be caught.  Succeed iff it was — and for
    // split-brain, iff the *specific* fencing oracle fired (the generic
    // exactly-one-primary catch would mask a cross-epoch-apply gap).
    bool caught = !result.failures.empty();
    if (caught && sabotage == "split-brain") {
      caught = false;
      for (const rtpb::chaos::SeedReport& rep : result.failures) {
        for (const rtpb::chaos::OracleViolation& v : rep.violations) {
          if (v.oracle == "cross-epoch-apply") caught = true;
        }
      }
    }
    if (caught && sabotage == "no-shedding") {
      // Same specificity rule: the silent violation must be caught AS a
      // silent violation, not incidentally by another oracle.
      caught = false;
      for (const rtpb::chaos::SeedReport& rep : result.failures) {
        for (const rtpb::chaos::OracleViolation& v : rep.violations) {
          if (v.oracle == "no-silent-violation") caught = true;
        }
      }
    }
    if (caught && sabotage == "torn-write") {
      // The durability hole must be caught AS a durability hole (the torn
      // tail also regresses versions, which monotone-versions flags).
      caught = false;
      for (const rtpb::chaos::SeedReport& rep : result.failures) {
        for (const rtpb::chaos::OracleViolation& v : rep.violations) {
          if (v.oracle == "durable-recovery") caught = true;
        }
      }
    }
    if (!caught) {
      std::cout << "sabotage '" << sabotage << "' was NOT caught — oracle gap!\n";
      return 1;
    }
    std::cout << "sabotage '" << sabotage << "' caught as expected\n";
    return 0;
  }
  return result.ok() ? 0 : 1;
}
