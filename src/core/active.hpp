// Active (state-machine) replication baseline.
//
// The paper's §1/§6.1 contrast: in active replication every write is
// applied atomically to all replicas, so a client response waits for an
// agreement round — higher response latency and message cost than RTPB's
// passive scheme, in exchange for identical replicas.  This module
// implements the baseline so the trade-off can be measured on the same
// substrate: a sequencer-leader assigns global sequence numbers, multicasts
// PREPAREs over the x-kernel stack, followers apply strictly in sequence
// order and acknowledge, and the write completes ("responds to the
// client") once EVERY follower acked.  Lost prepares are retransmitted per
// lagging follower on a timeout.
//
// Compare with bench/abl_active_vs_passive.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/object_store.hpp"
#include "core/types.hpp"
#include "core/wire.hpp"
#include "net/network.hpp"
#include "sched/cpu.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "xkernel/graph.hpp"

namespace rtpb::core {

class ActiveReplicationService {
 public:
  struct Params {
    std::uint64_t seed = 1;
    net::LinkParams link;
    std::size_t followers = 1;  ///< replicas besides the leader
    sched::Policy cpu_policy = sched::Policy::kFifo;
    Duration retransmit_timeout = millis(20);
    /// Injected loss on PREPARE/ACK traffic (paper §5 methodology).
    double message_loss_probability = 0.0;
  };

  explicit ActiveReplicationService(Params params);
  ~ActiveReplicationService();

  ActiveReplicationService(const ActiveReplicationService&) = delete;
  ActiveReplicationService& operator=(const ActiveReplicationService&) = delete;

  void start();
  void run_for(Duration d);

  /// Register an object and start its periodic client writes on the
  /// leader's CPU (same workload shape as the RTPB experiments).
  void add_object(const ObjectSpec& spec);
  /// Stop issuing client writes (used to drain in-flight agreement before
  /// comparing replica states).
  void stop_clients();

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const SampleSet& response_times() const { return response_times_; }
  [[nodiscard]] std::uint64_t writes_started() const { return writes_started_; }
  [[nodiscard]] std::uint64_t writes_completed() const { return writes_completed_; }
  [[nodiscard]] std::uint64_t prepares_sent() const { return prepares_sent_; }
  [[nodiscard]] std::uint64_t acks_received() const { return acks_received_; }
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }

  [[nodiscard]] const ObjectStore& follower_store(std::size_t i) const;
  /// All replicas hold identical versions for every object (call after
  /// stop_clients + a drain period).
  [[nodiscard]] bool replicas_identical() const;

 private:
  struct Follower {
    std::unique_ptr<xkernel::HostStack> stack;
    ObjectStore store;
    std::uint64_t next_to_apply = 1;
    std::map<std::uint64_t, wire::ActivePrepare> holdback;
  };
  struct PendingWrite {
    ObjectId object = kInvalidObject;
    TimePoint started{};
    Bytes value;
    TimePoint timestamp{};
    std::vector<bool> acked;  ///< per follower
    std::size_t acks = 0;
    sim::EventHandle retransmit;
  };

  void leader_write(ObjectId id, Bytes value, const sched::JobInfo& info);
  void multicast(const PendingWrite& w, std::uint64_t seq, bool only_unacked);
  void arm_retransmit(std::uint64_t seq);
  void on_follower_message(std::size_t follower_idx, xkernel::Message& msg,
                           const xkernel::MsgAttrs& attrs);
  void on_leader_message(xkernel::Message& msg, const xkernel::MsgAttrs& attrs);
  void apply_in_order(Follower& f);

  Params params_;
  sim::Simulator sim_;
  net::Network network_;
  Rng loss_rng_;
  std::unique_ptr<xkernel::HostStack> leader_stack_;
  sched::Cpu leader_cpu_;
  ObjectStore leader_store_;
  std::vector<std::unique_ptr<Follower>> followers_;
  std::map<net::NodeId, std::size_t> follower_by_node_;
  std::vector<ObjectSpec> specs_;
  std::vector<sched::TaskId> client_tasks_;
  Rng value_rng_;

  std::uint64_t next_sequence_ = 1;
  std::map<std::uint64_t, PendingWrite> pending_;
  SampleSet response_times_;
  std::uint64_t writes_started_ = 0;
  std::uint64_t writes_completed_ = 0;
  std::uint64_t prepares_sent_ = 0;
  std::uint64_t acks_received_ = 0;
  std::uint64_t retransmissions_ = 0;
  bool started_ = false;

  static constexpr net::Port kActivePort = 6000;
};

}  // namespace rtpb::core
