#include "core/faults.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "util/log.hpp"

namespace rtpb::core {

FaultPlan& FaultPlan::loss_storm(TimePoint from, TimePoint until, double probability) {
  at(from, "loss-storm-start", [this, probability] {
    service_.acting_primary().set_update_loss_probability(probability);
  });
  at(until, "loss-storm-end",
     [this] { service_.acting_primary().set_update_loss_probability(0.0); });
  return *this;
}

FaultPlan& FaultPlan::link_degradation(TimePoint from, TimePoint until, double probability) {
  const net::NodeId a = service_.primary().node();
  const net::NodeId b = service_.backup().node();
  at(from, "link-degradation-start",
     [this, a, b, probability] { service_.network().set_loss_probability(a, b, probability); });
  at(until, "link-degradation-end",
     [this, a, b] { service_.network().set_loss_probability(a, b, 0.0); });
  return *this;
}

FaultPlan& FaultPlan::duplication_burst(TimePoint from, TimePoint until, double probability) {
  const net::NodeId a = service_.primary().node();
  const net::NodeId b = service_.backup().node();
  at(from, "dup-burst-start", [this, a, b, probability] {
    net::LinkFaults f = service_.network().faults(a, b);
    f.duplicate_probability = probability;
    service_.network().set_faults(a, b, f);
  });
  at(until, "dup-burst-end", [this, a, b] {
    net::LinkFaults f = service_.network().faults(a, b);
    f.duplicate_probability = 0.0;
    service_.network().set_faults(a, b, f);
  });
  return *this;
}

FaultPlan& FaultPlan::reorder_burst(TimePoint from, TimePoint until, double probability,
                                    Duration extra) {
  const net::NodeId a = service_.primary().node();
  const net::NodeId b = service_.backup().node();
  at(from, "reorder-burst-start", [this, a, b, probability, extra] {
    net::LinkFaults f = service_.network().faults(a, b);
    f.reorder_probability = probability;
    f.reorder_extra = extra;
    service_.network().set_faults(a, b, f);
  });
  at(until, "reorder-burst-end", [this, a, b] {
    net::LinkFaults f = service_.network().faults(a, b);
    f.reorder_probability = 0.0;
    service_.network().set_faults(a, b, f);
  });
  return *this;
}

FaultPlan& FaultPlan::burst_loss(TimePoint from, TimePoint until, double enter_probability,
                                 std::uint32_t burst_length) {
  const net::NodeId a = service_.primary().node();
  const net::NodeId b = service_.backup().node();
  at(from, "burst-loss-start", [this, a, b, enter_probability, burst_length] {
    net::LinkFaults f = service_.network().faults(a, b);
    f.burst_loss_probability = enter_probability;
    f.burst_length = burst_length;
    service_.network().set_faults(a, b, f);
  });
  at(until, "burst-loss-end", [this, a, b] {
    net::LinkFaults f = service_.network().faults(a, b);
    f.burst_loss_probability = 0.0;
    service_.network().set_faults(a, b, f);
  });
  return *this;
}

FaultPlan& FaultPlan::corruption_burst(TimePoint from, TimePoint until, double probability) {
  const net::NodeId a = service_.primary().node();
  const net::NodeId b = service_.backup().node();
  at(from, "corruption-start", [this, a, b, probability] {
    net::LinkFaults f = service_.network().faults(a, b);
    f.corrupt_probability = probability;
    service_.network().set_faults(a, b, f);
  });
  at(until, "corruption-end", [this, a, b] {
    net::LinkFaults f = service_.network().faults(a, b);
    f.corrupt_probability = 0.0;
    service_.network().set_faults(a, b, f);
  });
  return *this;
}

FaultPlan& FaultPlan::cpu_spike(TimePoint from, TimePoint until, double fraction) {
  RTPB_EXPECTS(fraction > 0.0 && fraction < 1.0);
  // The hog task id travels start→end through a shared slot; the end
  // action must tolerate the primary having crashed (its CPU dies with
  // it) or never having started the spike.
  auto task = std::make_shared<sched::TaskId>(sched::kInvalidTask);
  at(from, "cpu-spike-start", [this, task, fraction] {
    ReplicaServer& primary = service_.acting_primary();
    if (primary.crashed()) return;
    const Duration period = millis(5);
    sched::TaskSpec spec;
    spec.name = "chaos-cpu-hog";
    spec.period = period;
    spec.wcet = period.scaled(fraction);
    *task = primary.cpu().add_task(spec, [](const sched::JobInfo&) {});
  });
  at(until, "cpu-spike-end", [this, task] {
    ReplicaServer& primary = service_.acting_primary();
    if (*task == sched::kInvalidTask || !primary.cpu().has_task(*task)) return;
    primary.cpu().remove_task(*task);
    *task = sched::kInvalidTask;
  });
  return *this;
}

FaultPlan& FaultPlan::throttle_bandwidth(TimePoint from, TimePoint until, double fraction) {
  RTPB_EXPECTS(fraction > 0.0 && fraction <= 1.0);
  const net::NodeId a = service_.primary().node();
  const net::NodeId b = service_.backup().node();
  auto original = std::make_shared<double>(0.0);
  at(from, "throttle-bandwidth-start", [this, a, b, fraction, original] {
    const auto params = service_.network().link_params(a, b);
    if (!params) return;
    *original = params->bandwidth_bps;
    // An infinite link (<=0) has nothing to throttle against a fraction.
    if (*original <= 0.0) return;
    service_.network().set_bandwidth(a, b, *original * fraction);
  });
  at(until, "throttle-bandwidth-end", [this, a, b, original] {
    if (*original <= 0.0) return;
    service_.network().set_bandwidth(a, b, *original);
  });
  return *this;
}

FaultPlan& FaultPlan::inflate_latency(TimePoint from, TimePoint until, Duration extra) {
  RTPB_EXPECTS(extra > Duration::zero());
  const net::NodeId a = service_.primary().node();
  const net::NodeId b = service_.backup().node();
  auto original = std::make_shared<Duration>();
  at(from, "inflate-latency-start", [this, a, b, extra, original] {
    const auto params = service_.network().link_params(a, b);
    if (!params) return;
    *original = params->propagation;
    service_.network().set_propagation(a, b, *original + extra);
  });
  at(until, "inflate-latency-end",
     [this, a, b, original] { service_.network().set_propagation(a, b, *original); });
  return *this;
}

FaultPlan& FaultPlan::partition_primary(TimePoint when) {
  const net::NodeId a = service_.primary().node();
  const net::NodeId b = service_.backup().node();
  return at(when, "partition-primary",
            [this, a, b] { service_.network().set_loss_probability(a, b, 1.0); });
}

FaultPlan& FaultPlan::crash_primary(TimePoint when) {
  return at(when, "crash-primary", [this] { service_.crash_primary(); });
}

FaultPlan& FaultPlan::crash_backup(TimePoint when) {
  return at(when, "crash-backup", [this] { service_.crash_backup(); });
}

FaultPlan& FaultPlan::add_standby(TimePoint when) {
  return at(when, "add-standby", [this] { service_.add_standby(); });
}

FaultPlan& FaultPlan::crash_restart_primary(TimePoint when, TimePoint restart_at) {
  RTPB_EXPECTS(restart_at > when);
  at(when, "crash-restart-primary", [this] {
    if (!service_.primary().crashed()) service_.crash_primary();
  });
  at(restart_at, "restart-primary", [this] {
    if (service_.params().durable && service_.primary().crashed()) service_.restart_primary();
  });
  return *this;
}

FaultPlan& FaultPlan::crash_restart_backup(TimePoint when, TimePoint restart_at) {
  RTPB_EXPECTS(restart_at > when);
  at(when, "crash-restart-backup", [this] {
    if (!service_.backup().crashed()) service_.crash_backup();
  });
  at(restart_at, "restart-backup", [this] {
    if (service_.params().durable && service_.backup().crashed()) service_.restart_backup(0);
  });
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

namespace {
bool candidate_fires(RtpbService& service, const char* label, double probability) {
  sim::Simulator& sim = service.simulator();
  return sim.decide_fault(sim::ChoiceContext{sim::ChoiceKind::kFault, probability, 0, 0, label},
                          sim.rng());
}
}  // namespace

FaultPlan& FaultPlan::maybe_crash_primary(TimePoint when, double probability) {
  return at(when, "maybe-crash-primary", [this, probability] {
    if (service_.primary().crashed()) return;
    if (!candidate_fires(service_, "crash-primary", probability)) return;
    service_.crash_primary();
  });
}

FaultPlan& FaultPlan::maybe_crash_backup(TimePoint when, double probability) {
  return at(when, "maybe-crash-backup", [this, probability] {
    if (service_.backup().crashed()) return;
    if (!candidate_fires(service_, "crash-backup", probability)) return;
    service_.crash_backup();
  });
}

FaultPlan& FaultPlan::maybe_add_standby(TimePoint when, double probability) {
  return at(when, "maybe-add-standby", [this, probability] {
    if (service_.standby() != nullptr) return;
    if (!candidate_fires(service_, "add-standby", probability)) return;
    service_.add_standby();
  });
}

FaultPlan& FaultPlan::maybe_crash_restart_primary(TimePoint when, Duration restart_delay,
                                                  double probability) {
  RTPB_EXPECTS(restart_delay > Duration::zero());
  // The restart half only fires if the crash half actually drew "yes":
  // the decision travels through a shared slot, so an un-fired candidate
  // leaves the trajectory untouched.
  auto fired = std::make_shared<bool>(false);
  at(when, "maybe-crash-restart-primary", [this, fired, probability] {
    if (!service_.params().durable || service_.primary().crashed()) return;
    if (!candidate_fires(service_, "crash-restart-primary", probability)) return;
    *fired = true;
    service_.crash_primary();
  });
  at(when + restart_delay, "maybe-restart-primary", [this, fired] {
    if (*fired && service_.primary().crashed()) service_.restart_primary();
  });
  return *this;
}

FaultPlan& FaultPlan::maybe_crash_restart_backup(TimePoint when, Duration restart_delay,
                                                 double probability) {
  RTPB_EXPECTS(restart_delay > Duration::zero());
  auto fired = std::make_shared<bool>(false);
  at(when, "maybe-crash-restart-backup", [this, fired, probability] {
    if (!service_.params().durable || service_.backup().crashed()) return;
    if (!candidate_fires(service_, "crash-restart-backup", probability)) return;
    *fired = true;
    service_.crash_backup();
  });
  at(when + restart_delay, "maybe-restart-backup", [this, fired] {
    if (*fired && service_.backup().crashed()) service_.restart_backup(0);
  });
  return *this;
}

FaultPlan& FaultPlan::maybe_partition_primary(TimePoint when, double probability) {
  const net::NodeId a = service_.primary().node();
  const net::NodeId b = service_.backup().node();
  return at(when, "maybe-partition-primary", [this, a, b, probability] {
    if (service_.primary().crashed() || service_.backup().crashed()) return;
    if (!candidate_fires(service_, "partition-primary", probability)) return;
    service_.network().set_loss_probability(a, b, 1.0);
  });
}

FaultPlan& FaultPlan::at(TimePoint when, std::string label, std::function<void()> action) {
  RTPB_EXPECTS(!armed_);
  RTPB_EXPECTS(action != nullptr);
  actions_.push_back({when, std::move(label), std::move(action)});
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
  // Each event captures its action's index; at() is closed once armed,
  // so actions_ no longer changes.
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    service_.simulator().schedule_at(std::max(actions_[i].when, now), [this, i] {
      const Action& action = actions_[i];
      RTPB_INFO("faults", "firing %s", action.label.c_str());
      fired_.push_back(action.label);
      action.fn();
    });
  }
}

}  // namespace rtpb::core
