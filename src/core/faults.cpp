#include "core/faults.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>

namespace rtpb::core {

namespace {

/// Per kind, in FaultKind order: its name and the fired() labels of its
/// start and end halves (no end label: an instant, with no end half).
struct KindInfo {
  const char* name;
  const char* start;
  const char* end;
};
constexpr KindInfo kKinds[] = {
    {"loss-storm", "loss-storm-start", "loss-storm-end"},
    {"link-degradation", "link-degradation-start", "link-degradation-end"},
    {"duplication-burst", "dup-burst-start", "dup-burst-end"},
    {"reorder-burst", "reorder-burst-start", "reorder-burst-end"},
    {"burst-loss", "burst-loss-start", "burst-loss-end"},
    {"corruption-burst", "corruption-start", "corruption-end"},
    {"crash-primary", "crash-primary", nullptr},
    {"crash-backup", "crash-backup", nullptr},
    {"add-standby", "add-standby", nullptr},
    {"partition-primary", "partition-primary", nullptr},
    {"cpu-spike", "cpu-spike-start", "cpu-spike-end"},
    {"throttle-bandwidth", "throttle-bandwidth-start", "throttle-bandwidth-end"},
    {"inflate-latency", "inflate-latency-start", "inflate-latency-end"},
    {"shard-loss-storm", nullptr, nullptr},
    {"crash-restart-primary", "crash-restart-primary", "restart-primary"},
    {"crash-restart-backup", "crash-restart-backup", "restart-backup"},
};
static_assert(std::size(kKinds) == kFaultKinds);

const KindInfo& info(FaultKind k) { return kKinds[static_cast<std::size_t>(k)]; }

}  // namespace

const char* fault_kind_name(FaultKind k) { return info(k).name; }

std::optional<FaultKind> fault_kind_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kFaultKinds; ++i) {
    if (name == kKinds[i].name) return static_cast<FaultKind>(i);
  }
  return std::nullopt;
}

std::string reproducer_line(const Fault& f, ReproTime unit) {
  const auto ms = [](auto t) { return static_cast<long long>(t.nanos() / 1'000'000); };
  const auto instant = [&](TimePoint t) {
    char out[48];
    if (unit == ReproTime::kNanos) {
      std::snprintf(out, sizeof out, "TimePoint{%lld}", static_cast<long long>(t.nanos()));
    } else {
      std::snprintf(out, sizeof out, "at_ms(%lld)", ms(t));
    }
    return std::string(out);
  };
  std::string verb = fault_kind_name(f.kind);
  std::replace(verb.begin(), verb.end(), '-', '_');
  const std::string at = instant(f.at);
  const std::string until = instant(f.until);
  char line[256];
  switch (f.kind) {
    case FaultKind::kCrashPrimary:
    case FaultKind::kCrashBackup:
    case FaultKind::kAddStandby:
    case FaultKind::kPartitionPrimary:
      std::snprintf(line, sizeof line, "plan.%s(%s);\n", verb.c_str(), at.c_str());
      break;
    case FaultKind::kCrashRestartPrimary:
    case FaultKind::kCrashRestartBackup:
      std::snprintf(line, sizeof line, "plan.%s(%s, %s);\n", verb.c_str(), at.c_str(),
                    until.c_str());
      break;
    case FaultKind::kLossStorm:
    case FaultKind::kLinkDegradation:
    case FaultKind::kDuplicationBurst:
    case FaultKind::kCorruptionBurst:
    case FaultKind::kCpuSpike:
    case FaultKind::kThrottleBandwidth:
      std::snprintf(line, sizeof line, "plan.%s(%s, %s, %.2f);\n", verb.c_str(), at.c_str(),
                    until.c_str(), f.probability);
      break;
    case FaultKind::kReorderBurst:
      std::snprintf(line, sizeof line, "plan.%s(%s, %s, %.2f, millis(%lld));\n", verb.c_str(),
                    at.c_str(), until.c_str(), f.probability, ms(f.extra));
      break;
    case FaultKind::kBurstLoss:
      std::snprintf(line, sizeof line, "plan.%s(%s, %s, %.2f, %u);\n", verb.c_str(), at.c_str(),
                    until.c_str(), f.probability, f.burst_length);
      break;
    case FaultKind::kInflateLatency:
      std::snprintf(line, sizeof line, "plan.%s(%s, %s, millis(%lld));\n", verb.c_str(),
                    at.c_str(), until.c_str(), ms(f.extra));
      break;
    case FaultKind::kShardLossStorm:
      std::snprintf(line, sizeof line,
                    "// shard %u loss storm [%lld, %lld] ms p=%.2f — set opts.shards and\n"
                    "// re-run through chaos::run_seed (per-object overrides).\n",
                    f.shard, ms(f.at), ms(f.until), f.probability);
      break;
  }
  return line;
}

FaultPlan& FaultPlan::add(const Fault& fault) {
  RTPB_EXPECTS(!armed_);
  RTPB_EXPECTS(fault.kind != FaultKind::kShardLossStorm);
  switch (fault.kind) {
    case FaultKind::kCpuSpike:
      RTPB_EXPECTS(fault.probability > 0.0 && fault.probability < 1.0);
      break;
    case FaultKind::kThrottleBandwidth:
      RTPB_EXPECTS(fault.probability > 0.0 && fault.probability <= 1.0);
      break;
    case FaultKind::kInflateLatency:
      RTPB_EXPECTS(fault.extra > Duration::zero());
      break;
    case FaultKind::kCrashRestartPrimary:
    case FaultKind::kCrashRestartBackup:
      RTPB_EXPECTS(fault.until > fault.at);
      break;
    default:
      break;
  }
  const std::size_t i = entries_.size();
  entries_.push_back({fault});
  actions_.push_back({fault.at, i, Half::kStart});
  if (info(fault.kind).end != nullptr) actions_.push_back({fault.until, i, Half::kEnd});
  return *this;
}

FaultPlan& FaultPlan::tear_wal_tail(TimePoint when, std::size_t replica_index,
                                    std::size_t bytes) {
  char label[64];
  std::snprintf(label, sizeof label, "tear-wal-tail(replica=%zu,bytes=%zu)", replica_index,
                bytes);
  return at(when, label, [this, replica_index, bytes] {
    store::SimStorageDevice* dev = service_.wal_device(replica_index);
    if (dev != nullptr) dev->tear_tail(bytes);
  });
}

FaultPlan& FaultPlan::at(TimePoint when, std::string label, std::function<void()> action) {
  RTPB_EXPECTS(!armed_);
  RTPB_EXPECTS(action != nullptr);
  actions_.push_back({when, scripts_.size(), Half::kScript});
  scripts_.push_back({std::move(label), std::move(action)});
  return *this;
}

void FaultPlan::arm() {
  RTPB_EXPECTS(!armed_);
  armed_ = true;
  // Schedule in virtual-time order (stable, so insertion order breaks
  // ties): fired() then reads as a timeline no matter how the plan was
  // phrased.  Actions already in the past fire at the current instant.
  std::stable_sort(actions_.begin(), actions_.end(),
                   [](const Action& a, const Action& b) { return a.when < b.when; });
  const TimePoint now = service_.simulator().now();
  // Each event captures its action's index; the plan is closed once
  // armed, so actions_ no longer changes.
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    service_.simulator().schedule_at(std::max(actions_[i].when, now),
                                     [this, i] { fire(actions_[i]); });
  }
}

void FaultPlan::fire(const Action& action) {
  if (action.half == Half::kScript) {
    const Script& script = scripts_[action.index];
    fired_.push_back(script.label);
    script.fn();
    return;
  }
  Entry& e = entries_[action.index];
  const bool start = action.half == Half::kStart;
  const KindInfo& kind = info(e.fault.kind);
  std::string label = e.fault.candidate ? "maybe-" : "";
  label += start ? kind.start : kind.end;
  fired_.push_back(std::move(label));
  if (e.fault.candidate) {
    if (start) e.chosen = decide(e.fault);
    if (!e.chosen) return;
  }
  apply(e, start);
}

bool FaultPlan::decide(const Fault& f) {
  const bool durable = service_.params().durable;
  bool open = true;
  switch (f.kind) {
    case FaultKind::kCrashPrimary: open = !service_.primary().crashed(); break;
    case FaultKind::kCrashBackup: open = !service_.backup().crashed(); break;
    case FaultKind::kAddStandby: open = service_.standby() == nullptr; break;
    case FaultKind::kPartitionPrimary:
      open = !service_.primary().crashed() && !service_.backup().crashed();
      break;
    case FaultKind::kCrashRestartPrimary: open = durable && !service_.primary().crashed(); break;
    case FaultKind::kCrashRestartBackup: open = durable && !service_.backup().crashed(); break;
    default: break;
  }
  if (!open) return false;
  sim::Simulator& sim = service_.simulator();
  return sim.decide_fault(
      sim::ChoiceContext{sim::ChoiceKind::kFault, f.probability, 0, 0,
                         static_cast<std::uint8_t>(f.kind)},
      sim.rng());
}

void FaultPlan::apply(Entry& e, bool start) {
  const Fault& f = e.fault;
  net::Network& net = service_.network();
  const net::NodeId a = service_.primary().node();
  const net::NodeId b = service_.backup().node();
  // The four LinkFaults knobs: read, set or clear one, write back.
  const auto edit_link = [&](auto edit) {
    net::LinkFaults faults = net.faults(a, b);
    edit(faults);
    net.set_faults(a, b, faults);
  };
  switch (f.kind) {
    case FaultKind::kLossStorm:
      service_.acting_primary().set_update_loss_probability(start ? f.probability : 0.0);
      break;
    case FaultKind::kLinkDegradation:
      net.set_loss_probability(a, b, start ? f.probability : 0.0);
      break;
    case FaultKind::kDuplicationBurst:
      edit_link([&](net::LinkFaults& l) { l.duplicate_probability = start ? f.probability : 0.0; });
      break;
    case FaultKind::kReorderBurst:
      edit_link([&](net::LinkFaults& l) {
        l.reorder_probability = start ? f.probability : 0.0;
        if (start) l.reorder_extra = f.extra;
      });
      break;
    case FaultKind::kBurstLoss:
      edit_link([&](net::LinkFaults& l) {
        l.burst_loss_probability = start ? f.probability : 0.0;
        if (start) l.burst_length = f.burst_length;
      });
      break;
    case FaultKind::kCorruptionBurst:
      edit_link([&](net::LinkFaults& l) { l.corrupt_probability = start ? f.probability : 0.0; });
      break;
    case FaultKind::kCpuSpike: {
      // The end half must tolerate the primary having crashed (its CPU
      // dies with it) or never having started the spike.
      ReplicaServer& primary = service_.acting_primary();
      if (start) {
        if (primary.crashed()) break;
        const Duration period = millis(5);
        sched::TaskSpec spec;
        spec.name = "chaos-cpu-hog";
        spec.period = period;
        spec.wcet = period.scaled(f.probability);
        e.hog = primary.cpu().add_task(spec, [](const sched::JobInfo&) {});
      } else if (e.hog != sched::kInvalidTask && primary.cpu().has_task(e.hog)) {
        primary.cpu().remove_task(e.hog);
        e.hog = sched::kInvalidTask;
      }
      break;
    }
    case FaultKind::kThrottleBandwidth:
      // An infinite link (<=0) has nothing to throttle against a fraction.
      if (!start) {
        if (e.bandwidth > 0.0) net.set_bandwidth(a, b, e.bandwidth);
      } else if (const auto params = net.link_params(a, b)) {
        e.bandwidth = params->bandwidth_bps;
        if (e.bandwidth > 0.0) net.set_bandwidth(a, b, e.bandwidth * f.probability);
      }
      break;
    case FaultKind::kInflateLatency:
      if (!start) {
        net.set_propagation(a, b, e.propagation);
      } else if (const auto params = net.link_params(a, b)) {
        e.propagation = params->propagation;
        net.set_propagation(a, b, e.propagation + f.extra);
      }
      break;
    case FaultKind::kPartitionPrimary:
      net.set_loss_probability(a, b, 1.0);
      break;
    case FaultKind::kCrashPrimary:
      service_.crash_primary();
      break;
    case FaultKind::kCrashBackup:
      service_.crash_backup();
      break;
    case FaultKind::kAddStandby:
      service_.add_standby();
      break;
    case FaultKind::kShardLossStorm:
      break;  // never added (see add())
    case FaultKind::kCrashRestartPrimary:
      if (start) {
        if (!service_.primary().crashed()) service_.crash_primary();
      } else if (service_.params().durable && service_.primary().crashed()) {
        service_.restart_primary();
      }
      break;
    case FaultKind::kCrashRestartBackup:
      if (start) {
        if (!service_.backup().crashed()) service_.crash_backup();
      } else if (service_.params().durable && service_.backup().crashed()) {
        service_.restart_backup(0);
      }
      break;
  }
}

}  // namespace rtpb::core
