// explore_main — bounded exhaustive exploration of the failover/epoch
// protocol (see src/explore/explorer.hpp for the model).
//
//   explore_main                          # default acceptance sweep:
//                                         # 2 nodes, 1 object, crash/recruit
//                                         # candidates + 1 droppable frame
//   explore_main --backups 2 --objects 2  # wider cluster, more state
//   explore_main --threads 1              # one runner (default: one per
//                                         # hardware thread; the output is
//                                         # the same at every count)
//   explore_main --sabotage split-brain --emit ce.txt
//                                         # self-test: fencing off under a
//                                         # partition MUST yield a
//                                         # cross-epoch-apply counterexample,
//                                         # replayable with
//                                         # chaos_main --replay ce.txt
//
// Exit status: 0 on a clean exhaustive sweep (or, under --sabotage, when
// the expected oracle was caught); 1 otherwise.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "explore/explorer.hpp"
#include "util/log.hpp"

namespace {

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --backups N           backups in the chain (default 1 = 2-node pair)\n"
      << "  --objects N           replicated objects (default 1)\n"
      << "  --seed S              service seed for the non-explored randomness (default 1)\n"
      << "  --horizon-ms MS       virtual time per trajectory (default 1500)\n"
      << "  --grace-ms MS         oracle grace around a fired fault (default 700)\n"
      << "  --crash-primary-at MS add a crash-primary candidate (repeatable)\n"
      << "  --crash-backup-at MS  add a crash-backup candidate (repeatable)\n"
      << "  --standby-at MS       add an add-standby candidate (repeatable)\n"
      << "  --partition-at MS     add a partition-primary candidate (repeatable)\n"
      << "  --crash-restart-primary-at MS  add a crash-restart-primary candidate\n"
      << "                        (repeatable; arms durable replicas)\n"
      << "  --crash-restart-backup-at MS   add a crash-restart-backup candidate\n"
      << "  --restart-delay-ms MS crash-restart outage length (default 400)\n"
      << "  --torn-bytes N        shear N bytes off a fired crash-restart victim's\n"
      << "                        WAL tail (torn-write sabotage; default 0 = off)\n"
      << "  --no-default-faults   empty candidate set (any --*-at also clears defaults)\n"
      << "  --faults N            fault budget per trajectory (default 2)\n"
      << "  --drops N             frame-drop budget per trajectory (default 1)\n"
      << "  --drop-from-ms MS     drop window start (default 101)\n"
      << "  --drop-until-ms MS    drop window end (default 401; end<=start disables)\n"
      << "  --max-trajectories N  DFS size cap (default 20000)\n"
      << "  --max-choices N       choice points per trajectory (default 160)\n"
      << "  --no-prune            disable visited-state expansion pruning\n"
      << "  --no-sleep-sets       disable the commuting-delivery reduction\n"
      << "  --threads N           trajectory runners (default 0 = one per hardware\n"
      << "                        thread); every count and artifact is the same at\n"
      << "                        every N\n"
      << "  --sabotage MODE       none | split-brain | no-failover | torn-write\n"
      << "  --emit FILE           write the first counterexample artifact to FILE;\n"
      << "                        a flight-recorder autopsy of its replay is\n"
      << "                        attached as FILE.postmortem.jsonl\n"
      << "  --metrics-out FILE    write the final metrics registry snapshot JSON of\n"
      << "                        a default-decisions trajectory after the sweep\n"
      << "  --quiet               suppress progress lines\n";
}

}  // namespace

int main(int argc, char** argv) {
  using rtpb::explore::ExploreConfig;

  ExploreConfig cfg;
  // Default acceptance scenario: one droppable-frame window over the
  // pre-failover phase, crash/recruit candidates off the 20 ms grids.
  cfg.bounds.drop_from = rtpb::TimePoint::zero() + rtpb::millis(101);
  cfg.bounds.drop_until = rtpb::TimePoint::zero() + rtpb::millis(401);
  std::string sabotage = "none";
  std::string emit_path;
  std::string metrics_out_path;
  bool default_faults = true;
  bool quiet = false;
  unsigned threads = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    auto next_ms = [&] { return rtpb::millis(std::strtoll(next(), nullptr, 10)); };
    if (arg == "--backups") {
      cfg.backups = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--objects") {
      cfg.objects = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seed") {
      cfg.service_seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--horizon-ms") {
      cfg.bounds.horizon = next_ms();
    } else if (arg == "--grace-ms") {
      cfg.failover_grace = next_ms();
    } else if (arg == "--crash-primary-at") {
      cfg.crash_primary_at.push_back(next_ms());
      default_faults = false;
    } else if (arg == "--crash-backup-at") {
      cfg.crash_backup_at.push_back(next_ms());
      default_faults = false;
    } else if (arg == "--standby-at") {
      cfg.add_standby_at.push_back(next_ms());
      default_faults = false;
    } else if (arg == "--partition-at") {
      cfg.partition_at.push_back(next_ms());
      default_faults = false;
    } else if (arg == "--crash-restart-primary-at") {
      cfg.crash_restart_primary_at.push_back(next_ms());
      default_faults = false;
    } else if (arg == "--crash-restart-backup-at") {
      cfg.crash_restart_backup_at.push_back(next_ms());
      default_faults = false;
    } else if (arg == "--restart-delay-ms") {
      cfg.restart_delay = next_ms();
    } else if (arg == "--torn-bytes") {
      cfg.torn_tail_bytes = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--no-default-faults") {
      default_faults = false;
    } else if (arg == "--faults") {
      cfg.bounds.fault_budget = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--drops") {
      cfg.bounds.drop_budget = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--drop-from-ms") {
      cfg.bounds.drop_from = rtpb::TimePoint::zero() + next_ms();
    } else if (arg == "--drop-until-ms") {
      cfg.bounds.drop_until = rtpb::TimePoint::zero() + next_ms();
    } else if (arg == "--max-trajectories") {
      cfg.bounds.max_trajectories = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--max-choices") {
      cfg.bounds.max_choice_points = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--no-prune") {
      cfg.prune_visited = false;
    } else if (arg == "--no-sleep-sets") {
      cfg.sleep_sets = false;
    } else if (arg == "--threads") {
      threads = static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--sabotage") {
      sabotage = next();
    } else if (arg == "--emit") {
      emit_path = next();
    } else if (arg == "--metrics-out") {
      metrics_out_path = next();
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage(argv[0]);
      return 2;
    }
  }

  // Thousands of service runs: keep per-run WARN noise (crashed links,
  // dropped frames) out of the sweep output.
  rtpb::Logger::instance().set_level(rtpb::LogLevel::kError);

  // Default candidate set (unless the user named any candidate, or asked
  // for none): a primary crash, a later backup crash, and a standby
  // recruit — all off the 20 ms protocol grids.
  if (default_faults) {
    cfg.crash_primary_at.push_back(rtpb::millis(251));
    cfg.crash_backup_at.push_back(rtpb::millis(451));
    cfg.add_standby_at.push_back(rtpb::millis(601));
  }

  std::string expect_oracle;
  if (sabotage == "split-brain") {
    // Fencing off under a primary↔successor partition: the deposed primary
    // keeps feeding epoch-stale updates to the re-recruited second backup.
    // The exploration MUST find a cross-epoch-apply counterexample.
    cfg.epoch_fencing = false;
    cfg.backups = 2;
    cfg.crash_primary_at.clear();
    cfg.crash_backup_at.clear();
    cfg.add_standby_at.clear();
    cfg.partition_at.assign(1, rtpb::millis(251));
    cfg.bounds.fault_budget = 1;
    cfg.bounds.drop_budget = 0;
    expect_oracle = "cross-epoch-apply";
  } else if (sabotage == "no-failover") {
    // Failure detector never declares (same lobotomy as chaos_main's
    // mode): a crashed primary stays dead and unreplaced, so once the
    // crash epoch closes the cluster has zero primaries.
    // exactly-one-primary must catch it.
    cfg.ping_max_misses = 1000000;
    cfg.crash_primary_at.assign(1, rtpb::millis(251));
    cfg.crash_backup_at.clear();
    cfg.add_standby_at.clear();
    cfg.partition_at.clear();
    cfg.bounds.fault_budget = 1;
    cfg.bounds.drop_budget = 0;
    expect_oracle = "exactly-one-primary";
  } else if (sabotage == "torn-write") {
    // A fired crash-restart loses part of its WAL tail while down: the
    // recovered image silently misses client-acked versions.  The
    // durable-recovery oracle (not merely monotone-versions, which also
    // trips on the rollback) must name the durability hole.
    cfg.crash_primary_at.clear();
    cfg.crash_backup_at.clear();
    cfg.add_standby_at.clear();
    cfg.partition_at.clear();
    cfg.crash_restart_backup_at.assign(1, rtpb::millis(251));
    cfg.torn_tail_bytes = 512;
    cfg.bounds.fault_budget = 1;
    cfg.bounds.drop_budget = 0;
    expect_oracle = "durable-recovery";
  } else if (sabotage != "none") {
    std::cerr << "unknown sabotage mode: " << sabotage << "\n";
    return 2;
  }

  std::cout << "exploring: backups=" << cfg.backups << " objects=" << cfg.objects
            << " fencing=" << (cfg.epoch_fencing ? "on" : "off")
            << " faults<=" << cfg.bounds.fault_budget << " drops<=" << cfg.bounds.drop_budget
            << " horizon=" << cfg.bounds.horizon.millis() << "ms"
            << " candidates=" << cfg.crash_primary_at.size() + cfg.crash_backup_at.size() +
                                     cfg.add_standby_at.size() + cfg.partition_at.size() +
                                     cfg.crash_restart_primary_at.size() +
                                     cfg.crash_restart_backup_at.size()
            << "\n";

  const rtpb::explore::ExploreReport report =
      rtpb::explore::explore(cfg, quiet ? nullptr : &std::cout, threads);
  std::cout << report.summary() << "\n";

  for (const rtpb::explore::Counterexample& ce : report.counterexamples) {
    std::cout << "counterexample: " << ce.oracle << " — " << ce.detail << "\n"
              << "  minimized trace: " << ce.trace.size() << " decisions\n";
    if (!emit_path.empty()) {
      std::ofstream out(emit_path);
      out << ce.to_text();
      std::cout << "  written to " << emit_path << " (replay: chaos_main --replay "
                << emit_path << ")\n";
      // Autopsy: re-run the minimized trace with the flight recorder on and
      // attach the resulting post-mortem next to the artifact.  Replaying
      // with observers attached takes the identical trajectory.
      rtpb::chaos::Observers observe;
      observe.postmortem_path = emit_path + ".postmortem.jsonl";
      (void)rtpb::explore::run_trajectory(ce.config, ce.trace, observe);
      std::cout << "  post-mortem attached: " << observe.postmortem_path << "\n";
    }
  }

  if (!metrics_out_path.empty()) {
    // Instrumented reference trajectory (all-default decisions): gives the
    // sweep a metrics snapshot without perturbing the exploration itself.
    rtpb::chaos::Observers observe;
    observe.telemetry = true;
    observe.metrics_json_path = metrics_out_path;
    (void)rtpb::explore::run_trajectory(cfg, {}, observe);
    std::cout << "metrics written to " << metrics_out_path << "\n";
  }

  if (!expect_oracle.empty()) {
    bool caught = false;
    for (const rtpb::explore::Counterexample& ce : report.counterexamples) {
      if (ce.oracle == expect_oracle) caught = true;
    }
    if (!caught) {
      std::cout << "sabotage '" << sabotage << "' was NOT caught — oracle or explorer gap!\n";
      return 1;
    }
    std::cout << "sabotage '" << sabotage << "' caught as expected\n";
    return 0;
  }
  if (report.hit_trajectory_cap) {
    std::cout << "NOT exhaustive: trajectory cap hit — raise --max-trajectories\n";
  }
  return report.ok() ? 0 : 1;
}
