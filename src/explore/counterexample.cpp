// Counterexample serialization: a violation witness as a small text
// artifact that survives copy-paste.  `to_text` emits scenario + trace +
// the chosen fault actions; `parse_counterexample` round-trips everything
// a replay needs.  The embedded FaultPlan snippet is commented out ('#')
// so the parser skips it — it exists for the human who wants the bug as a
// plain PR-1 reproducer in a unit test.

#include <algorithm>
#include <sstream>

#include "explore/explorer.hpp"

namespace rtpb::explore {

namespace {

std::string one_line(const std::string& s) {
  std::string out = s;
  std::replace(out.begin(), out.end(), '\n', ' ');
  std::replace(out.begin(), out.end(), '\r', ' ');
  return out;
}

}  // namespace

std::string Counterexample::fault_plan() const {
  std::ostringstream os;
  os << "core::FaultPlan plan(service);\n";
  for (const FaultAction& a : actions) {
    if (a.drop) {
      os << "// drop frame #" << a.frame << " on link " << a.a << "->" << a.b << " at "
         << a.at.nanos() << " ns (replayed via the choice trace)\n";
    } else {
      os << core::reproducer_line(config.candidate(a.kind, a.at), core::ReproTime::kNanos);
    }
  }
  os << "plan.arm();\n";
  return os.str();
}

std::string Counterexample::to_text() const {
  std::ostringstream os;
  os << "# rtpb-explore counterexample v1\n";
  os << "oracle " << oracle << "\n";
  if (!detail.empty()) os << "detail " << one_line(detail) << "\n";
  os << "backups " << config.backups << "\n";
  os << "objects " << config.objects << "\n";
  os << "seed " << config.service_seed << "\n";
  os << "fencing " << (config.epoch_fencing ? 1 : 0) << "\n";
  os << "misses " << config.ping_max_misses << "\n";
  os << "grace-ns " << config.failover_grace.nanos() << "\n";
  os << "horizon-ns " << config.bounds.horizon.nanos() << "\n";
  os << "max-trajectories " << config.bounds.max_trajectories << "\n";
  os << "max-choices " << config.bounds.max_choice_points << "\n";
  os << "fault-budget " << config.bounds.fault_budget << "\n";
  os << "drop-budget " << config.bounds.drop_budget << "\n";
  os << "drop-from-ns " << config.bounds.drop_from.nanos() << "\n";
  os << "drop-until-ns " << config.bounds.drop_until.nanos() << "\n";
  os << "restart-delay-ns " << config.restart_delay.nanos() << "\n";
  os << "torn-bytes " << config.torn_tail_bytes << "\n";
  for (const core::FaultKind kind : kCandidateKinds) {
    for (const Duration d : *config.candidates(kind)) {
      os << "candidate " << core::fault_kind_name(kind) << " " << d.nanos() << "\n";
    }
  }
  os << "trace";
  for (const std::uint16_t t : trace) os << " " << t;
  os << "\n";
  for (const FaultAction& a : actions) {
    os << "action " << (a.drop ? "drop-frame" : core::fault_kind_name(a.kind)) << " " << a.a
       << " " << a.b << " " << a.frame << " " << a.at.nanos() << "\n";
  }
  os << "#\n# FaultPlan reproducer for the chosen actions:\n";
  std::istringstream plan(fault_plan());
  for (std::string line; std::getline(plan, line);) os << "#   " << line << "\n";
  return os.str();
}

std::optional<Counterexample> parse_counterexample(const std::string& text) {
  Counterexample ce;
  // A parsed config starts from hard zeroes, not the struct defaults: every
  // scenario knob must come from the artifact itself.
  ce.config.bounds.fault_budget = 0;
  ce.config.bounds.drop_budget = 0;
  bool versioned = false;
  bool have_oracle = false;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) {
    if (line == "# rtpb-explore counterexample v1") {
      versioned = true;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "oracle") {
      ls >> ce.oracle;
      have_oracle = !ce.oracle.empty();
    } else if (key == "detail") {
      std::getline(ls, ce.detail);
      if (!ce.detail.empty() && ce.detail.front() == ' ') ce.detail.erase(0, 1);
    } else if (key == "backups") {
      ls >> ce.config.backups;
    } else if (key == "objects") {
      ls >> ce.config.objects;
    } else if (key == "seed") {
      ls >> ce.config.service_seed;
    } else if (key == "fencing") {
      int v = 1;
      ls >> v;
      ce.config.epoch_fencing = v != 0;
    } else if (key == "misses") {
      ls >> ce.config.ping_max_misses;
    } else if (key == "grace-ns") {
      std::int64_t ns = 0;
      ls >> ns;
      ce.config.failover_grace = Duration{ns};
    } else if (key == "horizon-ns") {
      std::int64_t ns = 0;
      ls >> ns;
      ce.config.bounds.horizon = Duration{ns};
    } else if (key == "max-trajectories") {
      ls >> ce.config.bounds.max_trajectories;
    } else if (key == "max-choices") {
      ls >> ce.config.bounds.max_choice_points;
    } else if (key == "fault-budget") {
      ls >> ce.config.bounds.fault_budget;
    } else if (key == "drop-budget") {
      ls >> ce.config.bounds.drop_budget;
    } else if (key == "drop-from-ns") {
      std::int64_t ns = 0;
      ls >> ns;
      ce.config.bounds.drop_from = TimePoint{ns};
    } else if (key == "drop-until-ns") {
      std::int64_t ns = 0;
      ls >> ns;
      ce.config.bounds.drop_until = TimePoint{ns};
    } else if (key == "restart-delay-ns") {
      std::int64_t ns = 0;
      ls >> ns;
      ce.config.restart_delay = Duration{ns};
    } else if (key == "torn-bytes") {
      ls >> ce.config.torn_tail_bytes;
    } else if (key == "candidate") {
      std::string label;
      std::int64_t ns = 0;
      ls >> label >> ns;
      const std::optional<core::FaultKind> kind = core::fault_kind_from_name(label);
      std::vector<Duration>* at = kind ? ce.config.candidates(*kind) : nullptr;
      if (at == nullptr) return std::nullopt;  // unknown candidate verb: cannot replay faithfully
      at->push_back(Duration{ns});
    } else if (key == "trace") {
      for (unsigned v = 0; ls >> v;) ce.trace.push_back(static_cast<std::uint16_t>(v));
    } else if (key == "action") {
      FaultAction a;
      std::string label;
      std::int64_t ns = 0;
      ls >> label >> a.a >> a.b >> a.frame >> ns;
      a.drop = label == "drop-frame";
      const std::optional<core::FaultKind> kind = core::fault_kind_from_name(label);
      if (!a.drop && !kind) return std::nullopt;  // unknown action: cannot render it
      a.kind = kind.value_or(core::FaultKind{});
      a.at = TimePoint{ns};
      ce.actions.push_back(a);
    }
    // Unknown keys are skipped: forward compatibility over strictness.
  }
  if (!versioned || !have_oracle) return std::nullopt;
  return ce;
}

}  // namespace rtpb::explore
