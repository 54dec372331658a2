// Failure detection (paper §4.4): both the primary and the backup run a
// "ping thread" that sends periodic PINGs to the other server and expects
// acknowledgments.  A ping that goes unanswered past the timeout counts as
// a miss; enough consecutive misses and the peer is declared dead.  Any
// traffic from the peer (not just acks) resets the miss counter — an
// UPDATE stream is as good a liveness proof as a PING_ACK.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/simulator.hpp"
#include "telemetry/facts.hpp"
#include "util/time.hpp"

namespace rtpb::core {

/// What a failure detector sees.  Its events go on the "heartbeat" track.
enum class DetectorFact : std::uint8_t { kPing, kMiss, kPeerDead, kStaleAck, kCount };

constexpr telemetry::FactSinks<DetectorFact> fact_sinks(DetectorFact f) {
  switch (f) {
    case DetectorFact::kPing: return {.counter = "core.heartbeat.pings"};
    case DetectorFact::kMiss: return {.counter = "core.heartbeat.misses", .event = "ping-miss"};
    case DetectorFact::kPeerDead: return {.counter = "core.heartbeat.peer_deaths",
                                          .event = "peer-dead"};
    case DetectorFact::kStaleAck: return {.counter = "core.heartbeat.stale_acks"};
    case DetectorFact::kCount: break;
  }
  return {};
}

class FailureDetector {
 public:
  struct Params {
    Duration ping_period = millis(100);
    Duration ack_timeout = millis(50);
    std::uint32_t max_misses = 3;
  };

  using SendPingFn = std::function<void(std::uint64_t seq)>;
  using PeerDeadFn = std::function<void()>;
  using RttSampleFn = std::function<void(Duration rtt)>;

  FailureDetector(sim::Simulator& sim, Params params, SendPingFn send_ping,
                  PeerDeadFn on_peer_dead);

  /// Observe the RTT of every matched ack for the most recent outstanding
  /// ping (Karn-unambiguous: pings are never retransmitted, and older
  /// in-flight seqs have no stored send time).  Adaptive-timeout mode
  /// feeds these into the Jacobson estimator.
  void set_rtt_callback(RttSampleFn fn) { on_rtt_ = std::move(fn); }

  /// Adjust the ack timeout at runtime (adaptive mode: SRTT + 4·RTTVAR).
  /// Clamped to (0, ping_period] to preserve the one-outstanding-ping
  /// invariant.
  void set_ack_timeout(Duration t);
  [[nodiscard]] Duration ack_timeout() const { return params_.ack_timeout; }

  void start();
  void stop();
  [[nodiscard]] bool running() const { return timer_.running(); }

  /// The peer answered ping `seq`.  Only an ack matching an outstanding
  /// ping (sent, and not already consumed) counts — duplicated or stale
  /// acks replayed by the network must not keep a dead peer "alive".
  void on_ping_ack(std::uint64_t seq);
  /// Any other message arrived from the peer (counts as liveness).
  void note_traffic();

  [[nodiscard]] bool peer_declared_dead() const { return peer_dead_; }
  [[nodiscard]] std::uint32_t consecutive_misses() const { return misses_; }
  [[nodiscard]] std::uint64_t pings_sent() const { return facts_.count(DetectorFact::kPing); }
  [[nodiscard]] std::uint64_t stale_acks() const { return facts_.count(DetectorFact::kStaleAck); }

 private:
  void send_ping();
  void on_timeout(std::uint64_t seq, TimePoint sent_at);

  sim::Simulator& sim_;
  Params params_;
  SendPingFn send_ping_;
  PeerDeadFn on_peer_dead_;
  RttSampleFn on_rtt_;
  sim::PeriodicTimer timer_;
  sim::EventHandle timeout_event_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t outstanding_seq_ = 0;    ///< most recent ping, for RTT timing
  TimePoint outstanding_sent_at_{};
  std::uint64_t last_acked_seq_ = 0;
  TimePoint last_traffic_{};
  std::uint32_t misses_ = 0;
  bool peer_dead_ = false;
  telemetry::Facts<DetectorFact> facts_;
};

}  // namespace rtpb::core
