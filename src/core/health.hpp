// Live health feed: each node periodically emits a one-line JSONL health
// snapshot — role, epoch, peer ack-lag, RTO, send-queue depth, degradation
// state and (on the acting primary) per-object SLO margins — so an
// operator, or tools/rtpb_top, can watch the service instead of autopsying
// it.
//
// The feed is a pure *reader*: it draws no randomness and mutates nothing,
// and its periodic timer carries the observer event tag, so trace digests
// are byte-identical with the feed on or off.  (Unlike the post-mortem ring
// and SLO monitor it does schedule events, so raw fired-event counts
// differ — which is why it is a separate opt-in from `--telemetry`.)
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "core/types.hpp"
#include "sim/simulator.hpp"

namespace rtpb::core {

class RtpbService;

class HealthFeed {
 public:
  /// `objects` lists the admitted ObjectIds whose SLO margins the acting
  /// primary's snapshot reports; `out` must outlive the feed.
  HealthFeed(RtpbService& service, std::ostream& out, std::vector<ObjectId> objects,
             Duration period = millis(100));

  HealthFeed(const HealthFeed&) = delete;
  HealthFeed& operator=(const HealthFeed&) = delete;

  void start();
  void stop();

  [[nodiscard]] std::uint64_t snapshots() const { return snapshots_; }

 private:
  void emit();

  RtpbService& service_;
  std::ostream& out_;
  std::vector<ObjectId> objects_;
  sim::PeriodicTimer timer_;
  std::uint64_t snapshots_ = 0;
};

}  // namespace rtpb::core
