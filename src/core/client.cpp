#include "core/client.hpp"

namespace rtpb::core {

ClientApp::ClientApp(sim::Simulator& sim, ReplicaServer& home, Rng rng, bool active)
    : sim_(sim), home_(home), rng_(rng), active_(active) {}

AdmissionResult ClientApp::add_object(const ObjectSpec& spec) {
  AdmissionResult result = home_.register_object(spec);
  if (result.ok()) {
    specs_.push_back(spec);
    if (active_) start_sensing(spec);
  }
  return result;
}

AdmissionStatus ClientApp::add_constraint(const InterObjectConstraint& c) {
  return home_.add_constraint(c);
}

void ClientApp::start_sensing(const ObjectSpec& spec) {
  RTPB_ASSERT(!tasks_.contains(spec.id));
  sched::TaskSpec task;
  task.name = "sense-" + std::to_string(spec.id);
  task.period = spec.client_period;
  task.wcet = spec.client_exec;
  const ObjectSpec captured = spec;
  tasks_[spec.id] = home_.cpu().add_task(task, [this, captured](const sched::JobInfo& info) {
    ++writes_issued_;
    home_.local_write(captured.id, sense_value(captured), info);
  });
}

std::span<const std::uint8_t> ClientApp::sense_value(const ObjectSpec& spec) {
  sensed_.resize(spec.size_bytes);
  rng_.fill_bytes(sensed_);
  return sensed_;
}

void ClientApp::activate() {
  if (active_) return;
  active_ = true;
  // Up-call: the promoted server's store carries every replicated spec.
  home_.store().for_each([this](const ObjectState& state) {
    if (!tasks_.contains(state.spec.id)) start_sensing(state.spec);
  });
}

void ClientApp::deactivate() {
  if (!active_) return;
  active_ = false;
  for (auto& [id, task] : tasks_) home_.cpu().remove_task(task);
  tasks_.clear();
}

}  // namespace rtpb::core
