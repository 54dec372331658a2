// Counterexample serialization: a violation witness as a small text
// artifact that survives copy-paste.  `to_text` emits scenario + trace +
// the chosen fault actions; `parse_counterexample` round-trips everything
// a replay needs.  The embedded FaultPlan snippet is commented out ('#')
// so the parser skips it — it exists for the human who wants the bug as a
// plain PR-1 reproducer in a unit test.

#include <algorithm>
#include <charconv>
#include <sstream>
#include <type_traits>

#include "explore/explorer.hpp"

namespace rtpb::explore {

namespace {

std::string one_line(const std::string& s) {
  std::string out = s;
  std::replace(out.begin(), out.end(), '\n', ' ');
  std::replace(out.begin(), out.end(), '\r', ' ');
  return out;
}

/// `token` as a T, read whole; a Duration or TimePoint reads as nanoseconds.
template <typename T>
bool parse(const std::string& token, T& out) {
  if constexpr (std::is_same_v<T, std::string>) {
    out = token;
    return true;
  } else if constexpr (std::is_same_v<T, Duration> || std::is_same_v<T, TimePoint>) {
    std::int64_t ns = 0;
    const bool ok = parse(token, ns);
    out = T{ns};
    return ok;
  } else {
    const auto [end, err] = std::from_chars(token.data(), token.data() + token.size(), out);
    return err == std::errc{} && end == token.data() + token.size();
  }
}

/// The rest of `line` into `out...`: false on a missing, malformed or
/// extra value.
template <typename... T>
bool fields(std::istream& line, T&... out) {
  std::string token;
  return ((line >> token && parse(token, out)) && ...) && !(line >> token);
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
    bool ok = true;
    if (key == "oracle") {
      ok = have_oracle = fields(ls, ce.oracle);
    } else if (key == "detail") {
      std::getline(ls, ce.detail);
      if (!ce.detail.empty() && ce.detail.front() == ' ') ce.detail.erase(0, 1);
    } else if (key == "backups") {
      ok = fields(ls, ce.config.backups) && ce.config.backups >= 1;
    } else if (key == "objects") {
      ok = fields(ls, ce.config.objects) && ce.config.objects >= 1;
    } else if (key == "seed") {
      ok = fields(ls, ce.config.service_seed);
    } else if (key == "fencing") {
      int v = -1;
      ok = fields(ls, v) && (v == 0 || v == 1);
      ce.config.epoch_fencing = v == 1;
    } else if (key == "misses") {
      ok = fields(ls, ce.config.ping_max_misses);
    } else if (key == "grace-ns") {
      ok = fields(ls, ce.config.failover_grace);
    } else if (key == "horizon-ns") {
      ok = fields(ls, ce.config.bounds.horizon);
    } else if (key == "max-trajectories") {
      ok = fields(ls, ce.config.bounds.max_trajectories);
    } else if (key == "max-choices") {
      ok = fields(ls, ce.config.bounds.max_choice_points);
    } else if (key == "fault-budget") {
      ok = fields(ls, ce.config.bounds.fault_budget);
    } else if (key == "drop-budget") {
      ok = fields(ls, ce.config.bounds.drop_budget);
    } else if (key == "drop-from-ns") {
      ok = fields(ls, ce.config.bounds.drop_from);
    } else if (key == "drop-until-ns") {
      ok = fields(ls, ce.config.bounds.drop_until);
    } else if (key == "restart-delay-ns") {
      ok = fields(ls, ce.config.restart_delay);
    } else if (key == "torn-bytes") {
      ok = fields(ls, ce.config.torn_tail_bytes);
    } else if (key == "candidate") {
      std::string label;
      Duration at{};
      const std::optional<core::FaultKind> kind =
          fields(ls, label, at) ? core::fault_kind_from_name(label) : std::nullopt;
      std::vector<Duration>* list = kind ? ce.config.candidates(*kind) : nullptr;
      ok = list != nullptr;  // an unknown candidate verb cannot be replayed faithfully
      if (ok) list->push_back(at);
    } else if (key == "trace") {
      for (std::string token; ok && ls >> token;) ok = parse(token, ce.trace.emplace_back());
    } else if (key == "action") {
      FaultAction a;
      std::string label;
      ok = fields(ls, label, a.a, a.b, a.frame, a.at);
      a.drop = label == "drop-frame";
      const std::optional<core::FaultKind> kind = core::fault_kind_from_name(label);
      ok = ok && (a.drop || kind);  // an unknown action cannot be rendered
      a.kind = kind.value_or(core::FaultKind{});
      ce.actions.push_back(a);
    }
    // Unknown keys are skipped: forward compatibility over strictness.
    if (!ok) return std::nullopt;
  }
  if (!versioned || !have_oracle) return std::nullopt;
  return ce;
}

}  // namespace rtpb::explore
