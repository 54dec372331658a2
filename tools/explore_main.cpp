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
//                                         # self-test: MUST yield a
//                                         # cross-epoch-apply counterexample
//                                         # (chaos_main --replay ce.txt)
//
// Exit status: 0 on a clean exhaustive sweep (or, under --sabotage, when
// the mode's own oracle (chaos/sabotage.hpp) was caught); 2 if an
// --emit or --metrics-out file (or the autopsy beside it) cannot be
// written, naming it on stderr; 1 otherwise.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cli.hpp"
#include "explore/explorer.hpp"

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
      << "  --sabotage MODE       plant a bug (default none); exit 0 iff a\n"
      << "                        counterexample names the oracle in parentheses:\n";
  for (const rtpb::chaos::Sabotage& s : rtpb::chaos::kSabotages) {
    rtpb::explore::ExploreConfig probe;
    if (rtpb::explore::plant(s, probe)) {
      std::cerr << "                          " << s.name << " (" << s.oracle << ")\n";
    }
  }
  std::cerr << "  --emit FILE           write the first counterexample artifact to FILE;\n"
      << "                        a post-mortem autopsy of its replay is\n"
      << "                        attached as FILE.postmortem.jsonl\n"
      << "  --metrics-out FILE    write the final metrics registry snapshot JSON of\n"
      << "                        a default-decisions trajectory after the sweep\n"
      << "  --quiet               suppress progress lines\n"
      << "A FILE that cannot be written is named on stderr and the run exits 2.\n";
}

/// The flag that adds a fault candidate of each kind.
constexpr std::pair<std::string_view, rtpb::core::FaultKind> kCandidateFlags[] = {
    {"--crash-primary-at", rtpb::core::FaultKind::kCrashPrimary},
    {"--crash-backup-at", rtpb::core::FaultKind::kCrashBackup},
    {"--standby-at", rtpb::core::FaultKind::kAddStandby},
    {"--partition-at", rtpb::core::FaultKind::kPartitionPrimary},
    {"--crash-restart-primary-at", rtpb::core::FaultKind::kCrashRestartPrimary},
    {"--crash-restart-backup-at", rtpb::core::FaultKind::kCrashRestartBackup},
};

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

  rtpb::cli::Args args(argc, argv);
  while (args.next()) {
    const std::string& arg = args.flag();
    if (arg == "--backups") {
      cfg.backups = args.number<std::size_t>(1);
    } else if (arg == "--objects") {
      cfg.objects = args.number<std::size_t>();
    } else if (arg == "--seed") {
      cfg.service_seed = args.number<std::uint64_t>();
    } else if (arg == "--horizon-ms") {
      cfg.bounds.horizon = args.millis(1);
    } else if (arg == "--grace-ms") {
      cfg.failover_grace = args.millis();
    } else if (const auto* c = std::find_if(std::begin(kCandidateFlags), std::end(kCandidateFlags),
                                            [&](const auto& f) { return f.first == arg; });
               c != std::end(kCandidateFlags)) {
      cfg.candidates(c->second)->push_back(args.millis());
      default_faults = false;
    } else if (arg == "--restart-delay-ms") {
      cfg.restart_delay = args.millis();
    } else if (arg == "--torn-bytes") {
      cfg.torn_tail_bytes = args.number<std::size_t>();
    } else if (arg == "--no-default-faults") {
      default_faults = false;
    } else if (arg == "--faults") {
      cfg.bounds.fault_budget = args.number<std::uint32_t>();
    } else if (arg == "--drops") {
      cfg.bounds.drop_budget = args.number<std::uint32_t>();
    } else if (arg == "--drop-from-ms") {
      cfg.bounds.drop_from = rtpb::TimePoint::zero() + args.millis();
    } else if (arg == "--drop-until-ms") {
      cfg.bounds.drop_until = rtpb::TimePoint::zero() + args.millis();
    } else if (arg == "--max-trajectories") {
      cfg.bounds.max_trajectories = args.number<std::size_t>();
    } else if (arg == "--max-choices") {
      cfg.bounds.max_choice_points = args.number<std::size_t>();
    } else if (arg == "--no-prune") {
      cfg.prune_visited = false;
    } else if (arg == "--no-sleep-sets") {
      cfg.sleep_sets = false;
    } else if (arg == "--threads") {
      threads = args.number<unsigned>();
    } else if (arg == "--sabotage") {
      sabotage = args.value();
    } else if (arg == "--emit") {
      emit_path = args.value();
    } else if (arg == "--metrics-out") {
      metrics_out_path = args.value();
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

  // Default candidate set (unless the user named any candidate, or asked
  // for none): a primary crash, a later backup crash, and a standby
  // recruit — all off the 20 ms protocol grids.
  if (default_faults) {
    cfg.crash_primary_at.push_back(rtpb::millis(251));
    cfg.crash_backup_at.push_back(rtpb::millis(451));
    cfg.add_standby_at.push_back(rtpb::millis(601));
  }

  const rtpb::chaos::Sabotage* mode = nullptr;
  if (sabotage != "none") {
    mode = rtpb::chaos::find_sabotage(sabotage);
    if (mode == nullptr || !rtpb::explore::plant(*mode, cfg)) {
      std::cerr << "not an explorer sabotage mode: " << sabotage << "\n";
      return 2;
    }
  }

  std::size_t candidates = 0;
  for (const rtpb::core::FaultKind kind : rtpb::explore::kCandidateKinds) {
    candidates += cfg.candidates(kind)->size();
  }
  std::cout << "exploring: backups=" << cfg.backups << " objects=" << cfg.objects
            << " fencing=" << (cfg.epoch_fencing ? "on" : "off")
            << " faults<=" << cfg.bounds.fault_budget << " drops<=" << cfg.bounds.drop_budget
            << " horizon=" << cfg.bounds.horizon.millis() << "ms"
            << " candidates=" << candidates << "\n";

  const rtpb::explore::ExploreReport report =
      rtpb::explore::explore(cfg, quiet ? nullptr : &std::cout, threads);
  std::cout << report.summary() << "\n";

  std::vector<std::string> unwritable;
  for (const rtpb::explore::Counterexample& ce : report.counterexamples) {
    std::cout << "counterexample: " << ce.oracle << " — " << ce.detail << "\n"
              << "  minimized trace: " << ce.trace.size() << " decisions\n";
    if (!emit_path.empty()) {
      std::ofstream out(emit_path);
      out << ce.to_text();
      if (!out) {
        rtpb::cli::add_unwritable(unwritable, {emit_path});
        continue;
      }
      std::cout << "  written to " << emit_path << " (replay: chaos_main --replay "
                << emit_path << ")\n";
      // Autopsy: re-run the minimized trace with the post-mortem ring on
      // and attach the resulting post-mortem next to the artifact.  Replaying
      // with observers attached takes the identical trajectory.
      rtpb::chaos::Observers observe;
      observe.postmortem_path = emit_path + ".postmortem.jsonl";
      const auto autopsy = rtpb::explore::run_trajectory(ce.config, ce.trace, observe);
      if (autopsy.unwritable.empty()) {
        std::cout << "  post-mortem attached: " << observe.postmortem_path << "\n";
      }
      rtpb::cli::add_unwritable(unwritable, autopsy.unwritable);
    }
  }

  if (!metrics_out_path.empty()) {
    // Instrumented reference trajectory (all-default decisions): gives the
    // sweep a metrics snapshot without perturbing the exploration itself.
    rtpb::chaos::Observers observe;
    observe.telemetry = true;
    observe.metrics_json_path = metrics_out_path;
    const auto reference = rtpb::explore::run_trajectory(cfg, {}, observe);
    if (reference.unwritable.empty()) {
      std::cout << "metrics written to " << metrics_out_path << "\n";
    }
    rtpb::cli::add_unwritable(unwritable, reference.unwritable);
  }
  if (rtpb::cli::report_unwritable("explore_main", unwritable)) return 2;

  if (mode != nullptr) {
    if (std::none_of(report.counterexamples.begin(), report.counterexamples.end(),
                     [&](const auto& ce) { return ce.oracle == mode->oracle; })) {
      std::cout << "sabotage '" << sabotage << "' was NOT caught by " << mode->oracle
                << " — oracle or explorer gap!\n";
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
