#include "core/active.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace rtpb::core {

ActiveReplicationService::ActiveReplicationService(Params params)
    : params_(params),
      sim_(params.seed),
      network_(sim_),
      loss_rng_(sim_.rng().fork()),
      leader_cpu_(sim_, params.cpu_policy, "active-leader-cpu"),
      value_rng_(sim_.rng().fork()) {
  RTPB_EXPECTS(params_.followers >= 1);
  leader_stack_ = std::make_unique<xkernel::HostStack>(network_);
  leader_stack_->udp().bind(kActivePort,
                            [this](xkernel::Message& msg, const xkernel::MsgAttrs& attrs) {
                              on_leader_message(msg, attrs);
                            });
  for (std::size_t i = 0; i < params_.followers; ++i) {
    auto follower = std::make_unique<Follower>();
    follower->stack = std::make_unique<xkernel::HostStack>(network_);
    network_.connect(leader_stack_->node(), follower->stack->node(), params_.link);
    follower->stack->udp().bind(
        kActivePort, [this, i](xkernel::Message& msg, const xkernel::MsgAttrs& attrs) {
          on_follower_message(i, msg, attrs);
        });
    follower_by_node_[follower->stack->node()] = i;
    followers_.push_back(std::move(follower));
  }
}

ActiveReplicationService::~ActiveReplicationService() = default;

void ActiveReplicationService::start() {
  RTPB_EXPECTS(!started_);
  started_ = true;
  leader_cpu_.start(sim_.now());
}

void ActiveReplicationService::run_for(Duration d) { sim_.run_until(sim_.now() + d); }

void ActiveReplicationService::add_object(const ObjectSpec& spec) {
  RTPB_EXPECTS(started_);
  RTPB_EXPECTS(spec.client_period > Duration::zero());
  RTPB_EXPECTS(spec.client_exec > Duration::zero());
  specs_.push_back(spec);
  leader_store_.insert(spec);
  for (auto& f : followers_) f->store.insert(spec);

  sched::TaskSpec task;
  task.name = "active-client-" + std::to_string(spec.id);
  task.period = spec.client_period;
  task.wcet = spec.client_exec;
  const ObjectSpec captured = spec;
  client_tasks_.push_back(
      leader_cpu_.add_task(task, [this, captured](const sched::JobInfo& info) {
        Bytes value(captured.size_bytes);
        for (auto& b : value) b = static_cast<std::uint8_t>(value_rng_.uniform(0, 255));
        leader_write(captured.id, std::move(value), info);
      }));
}

void ActiveReplicationService::stop_clients() {
  for (sched::TaskId id : client_tasks_) leader_cpu_.remove_task(id);
  client_tasks_.clear();
}

void ActiveReplicationService::leader_write(ObjectId id, Bytes value,
                                            const sched::JobInfo& info) {
  // The leader is the sequencer: apply locally, then seek agreement.
  const std::uint64_t seq = next_sequence_++;
  ++writes_started_;
  leader_store_.write(id, value, info.finish);

  PendingWrite w;
  w.object = id;
  w.started = info.release;
  w.value = std::move(value);
  w.timestamp = info.finish;
  w.acked.assign(followers_.size(), false);
  auto [it, inserted] = pending_.emplace(seq, std::move(w));
  RTPB_ASSERT(inserted);
  multicast(it->second, seq, /*only_unacked=*/false);
  arm_retransmit(seq);
}

void ActiveReplicationService::multicast(const PendingWrite& w, std::uint64_t seq,
                                         bool only_unacked) {
  wire::ActivePrepare prepare;
  prepare.sequence = seq;
  prepare.object = w.object;
  prepare.timestamp = w.timestamp;
  prepare.value = w.value;
  // Encode once; every follower's copy shares the body buffer.
  const xkernel::Message frame{wire::encode(prepare)};
  for (std::size_t i = 0; i < followers_.size(); ++i) {
    if (only_unacked && w.acked[i]) continue;
    ++prepares_sent_;
    if (loss_rng_.bernoulli(params_.message_loss_probability)) continue;
    leader_stack_->send_message(kActivePort, {followers_[i]->stack->node(), kActivePort}, frame);
  }
}

void ActiveReplicationService::arm_retransmit(std::uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  it->second.retransmit = sim_.schedule_after(params_.retransmit_timeout, [this, seq] {
    auto pending_it = pending_.find(seq);
    if (pending_it == pending_.end()) return;
    ++retransmissions_;
    multicast(pending_it->second, seq, /*only_unacked=*/true);
    arm_retransmit(seq);
  });
}

void ActiveReplicationService::on_follower_message(std::size_t follower_idx,
                                                   xkernel::Message& msg,
                                                   const xkernel::MsgAttrs& /*attrs*/) {
  const auto decoded = wire::decode(msg.contents());
  const auto* prepare_msg = decoded ? std::get_if<wire::ActivePrepare>(&*decoded) : nullptr;
  if (prepare_msg == nullptr) return;
  Follower& f = *followers_[follower_idx];
  const wire::ActivePrepare& prepare = *prepare_msg;
  const bool already_applied = prepare.sequence < f.next_to_apply;
  if (!already_applied) {
    f.holdback.emplace(prepare.sequence, prepare);
    apply_in_order(f);  // acks every newly applied sequence
  } else {
    // Duplicate of an applied write (the original ack was lost): re-ack.
    wire::ActiveAck ack{prepare.sequence};
    if (!loss_rng_.bernoulli(params_.message_loss_probability)) {
      f.stack->send_datagram(kActivePort, {leader_stack_->node(), kActivePort},
                             wire::encode(ack));
    }
  }
}

void ActiveReplicationService::apply_in_order(Follower& f) {
  while (true) {
    auto it = f.holdback.find(f.next_to_apply);
    if (it == f.holdback.end()) break;
    const wire::ActivePrepare& p = it->second;
    f.store.apply(p.object, f.store.get(p.object).version + 1, p.timestamp, p.value, sim_.now());
    ++f.next_to_apply;
    // Ack the newly applied sequence.
    wire::ActiveAck ack{it->first};
    if (!loss_rng_.bernoulli(params_.message_loss_probability)) {
      f.stack->send_datagram(kActivePort, {leader_stack_->node(), kActivePort},
                             wire::encode(ack));
    }
    f.holdback.erase(it);
  }
}

void ActiveReplicationService::on_leader_message(xkernel::Message& msg,
                                                 const xkernel::MsgAttrs& attrs) {
  const auto decoded = wire::decode(msg.contents());
  const auto* ack = decoded ? std::get_if<wire::ActiveAck>(&*decoded) : nullptr;
  if (ack == nullptr) return;
  auto follower_it = follower_by_node_.find(attrs.src.node);
  if (follower_it == follower_by_node_.end()) return;
  const std::size_t idx = follower_it->second;

  auto it = pending_.find(ack->sequence);
  if (it == pending_.end()) return;  // already completed
  PendingWrite& w = it->second;
  ++acks_received_;
  if (w.acked[idx]) return;
  w.acked[idx] = true;
  ++w.acks;
  if (w.acks == followers_.size()) {
    // Agreement reached: the client response completes now.
    response_times_.add(sim_.now() - w.started);
    ++writes_completed_;
    w.retransmit.cancel();
    pending_.erase(it);
  }
}

const ObjectStore& ActiveReplicationService::follower_store(std::size_t i) const {
  RTPB_EXPECTS(i < followers_.size());
  return followers_[i]->store;
}

bool ActiveReplicationService::replicas_identical() const {
  for (const auto& spec : specs_) {
    const ObjectState& lead = leader_store_.get(spec.id);
    for (const auto& f : followers_) {
      const ObjectState& copy = f->store.get(spec.id);
      if (copy.value != lead.value || copy.origin_timestamp != lead.origin_timestamp) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace rtpb::core
