#include "core/heartbeat.hpp"

#include <algorithm>

namespace rtpb::core {

namespace {
/// The detail of a DetectorFact: a miss carries the ping's seq and the
/// misses so far out of the limit, a peer death the misses.
void describe(const telemetry::Hub&, const telemetry::Event& e, telemetry::Part,
              std::string& out) {
  if (static_cast<DetectorFact>(e.tag) == DetectorFact::kPeerDead) {
    return telemetry::append(out, "after ", e.a, " misses");
  }
  telemetry::append(out, "seq ", e.a, " miss ", e.b, "/", e.c);
}
}  // namespace

FailureDetector::FailureDetector(sim::Simulator& sim, Params params, SendPingFn send_ping,
                                 PeerDeadFn on_peer_dead)
    : sim_(sim),
      params_(params),
      send_ping_(std::move(send_ping)),
      on_peer_dead_(std::move(on_peer_dead)),
      timer_(sim, params.ping_period, [this] { this->send_ping(); }),
      facts_("heartbeat", &describe, &sim.telemetry()) {
  RTPB_EXPECTS(send_ping_ != nullptr);
  RTPB_EXPECTS(on_peer_dead_ != nullptr);
  RTPB_EXPECTS(params_.ack_timeout <= params_.ping_period);
}

void FailureDetector::start() {
  misses_ = 0;
  peer_dead_ = false;
  last_traffic_ = sim_.now();
  timer_.start();
}

void FailureDetector::stop() {
  timer_.stop();
  timeout_event_.cancel();
}

void FailureDetector::send_ping() {
  if (peer_dead_) return;
  const std::uint64_t seq = next_seq_++;
  facts_.emit(DetectorFact::kPing);
  send_ping_(seq);
  const TimePoint sent_at = sim_.now();
  outstanding_seq_ = seq;
  outstanding_sent_at_ = sent_at;
  timeout_event_.cancel();
  timeout_event_ =
      sim_.schedule_after(params_.ack_timeout, [this, seq, sent_at] { on_timeout(seq, sent_at); });
}

void FailureDetector::on_timeout(std::uint64_t seq, TimePoint sent_at) {
  if (peer_dead_) return;
  if (last_traffic_ >= sent_at) {
    misses_ = 0;
    return;
  }
  ++misses_;
  facts_.emit(DetectorFact::kMiss, {.a = seq, .b = misses_, .c = params_.max_misses});
  if (misses_ >= params_.max_misses) {
    peer_dead_ = true;
    timer_.stop();
    facts_.emit(DetectorFact::kPeerDead, {.a = misses_});
    on_peer_dead_();
  }
}

void FailureDetector::on_ping_ack(std::uint64_t seq) {
  // A valid ack names a ping we actually sent and have not yet credited.
  // Anything else is a duplicate or a stale replay (chaos `dup`/`reorder`
  // verbs) and proves nothing about the peer's liveness *now*.
  if (seq == 0 || seq >= next_seq_ || seq <= last_acked_seq_) {
    facts_.emit(DetectorFact::kStaleAck);
    return;
  }
  last_acked_seq_ = seq;
  last_traffic_ = sim_.now();
  if (!peer_dead_) misses_ = 0;
  // RTT is only measurable for the latest ping — its send time is the one
  // we stored.  An ack for an older (already timed-out) seq is credited
  // for liveness above but yields no sample.
  if (seq == outstanding_seq_ && on_rtt_) {
    on_rtt_(sim_.now() - outstanding_sent_at_);
  }
}

void FailureDetector::set_ack_timeout(Duration t) {
  if (t <= Duration::zero()) return;
  params_.ack_timeout = std::min(t, params_.ping_period);
}

void FailureDetector::note_traffic() {
  // Non-ack traffic excuses the currently outstanding ping (on_timeout
  // compares last_traffic_ against the ping's send time) but does not
  // clear already-accumulated misses: a replayed duplicate of an old
  // frame must not reset the count the way a matched ack does.
  last_traffic_ = sim_.now();
}

}  // namespace rtpb::core
