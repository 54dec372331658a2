#include "core/health.hpp"

#include <cinttypes>
#include <cstdio>
#include <string>

#include "core/service.hpp"

namespace rtpb::core {

namespace {

std::string fmt_ms(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

HealthFeed::HealthFeed(RtpbService& service, std::ostream& out, std::vector<ObjectId> objects,
                       Duration period)
    : service_(service),
      out_(out),
      objects_(std::move(objects)),
      timer_(service.simulator(), period, [this] { emit(); },
             sim::EventTag{sim::kTagObserver, 0, 0}) {}

void HealthFeed::start() { timer_.start(); }

void HealthFeed::stop() { timer_.stop(); }

void HealthFeed::emit() {
  const TimePoint now = service_.simulator().now();
  const Metrics& metrics = service_.metrics();
  const ReplicaServer* acting_primary = nullptr;
  service_.for_each_replica([&acting_primary](const ReplicaServer& r) {
    if (!r.crashed() && r.role() == Role::kPrimary && acting_primary == nullptr) {
      acting_primary = &r;
    }
  });

  service_.for_each_replica([&](const ReplicaServer& r) {
    std::string line;
    line.reserve(256);
    line += "{\"type\":\"health\",\"ts_ms\":";
    line += fmt_ms(now.millis());
    line += ",\"node\":" + std::to_string(r.node());
    line += std::string(",\"role\":\"") + role_name(r.role()) + "\"";
    line += ",\"epoch\":" + std::to_string(r.epoch());
    line += std::string(",\"crashed\":") + (r.crashed() ? "true" : "false");
    const DegradationController* deg = r.degradation();
    if (deg != nullptr) {
      line += ",\"rto_ms\":" + fmt_ms(deg->rtt().rto().millis());
      line += std::string(",\"overloaded\":") + (deg->overloaded(now) ? "true" : "false");
      line += ",\"degradation_triggers\":" + std::to_string(deg->triggers());
    }
    line += ",\"queue\":" + std::to_string(r.staged_update_count());
    line += ",\"shed\":" + std::to_string(r.updates_shed());
    // Partitioned deployments: the peer-group frontiers this replica has
    // ingested so far (single-group runs never ingest one and emit
    // nothing, keeping pre-shard feed lines byte-identical).
    if (!r.peer_frontiers().empty()) {
      line += ",\"frontiers\":[";
      bool first_front = true;
      for (const auto& [shard, ts] : r.peer_frontiers()) {
        if (!first_front) line += ",";
        first_front = false;
        line += "{\"shard\":" + std::to_string(shard) +
                ",\"stable_ms\":" + fmt_ms(ts.millis()) + "}";
      }
      line += "]";
    }
    line += ",\"updates_sent\":" + std::to_string(r.updates_sent());
    line += ",\"updates_applied\":" + std::to_string(r.updates_applied());

    // Peer ack-lag: how many versions behind this replica's copy each peer's
    // newest acknowledged version is, maximised over the admitted objects.
    // Only populated in per-update-ack mode (acked versions are 0 otherwise).
    if (!r.peers().empty() && !objects_.empty()) {
      line += ",\"peers\":[";
      bool first_peer = true;
      for (const net::Endpoint& p : r.peers()) {
        if (!first_peer) line += ",";
        first_peer = false;
        std::uint64_t max_lag = 0;
        for (ObjectId id : objects_) {
          const ObjectState* state = r.peek(id);
          if (state == nullptr) continue;
          const std::uint64_t acked = r.peer_acked_version(p.node, id);
          if (acked > 0 && state->version > acked) {
            max_lag = std::max(max_lag, state->version - acked);
          }
        }
        line += "{\"node\":" + std::to_string(p.node) +
                ",\"max_ack_lag\":" + std::to_string(max_lag) + "}";
      }
      line += "]";
    }

    // Per-object temporal-consistency state, reported from the acting
    // primary's line (the Metrics tracker holds the service-wide view).
    if (&r == acting_primary && !objects_.empty()) {
      line += ",\"objects\":[";
      bool first_obj = true;
      for (ObjectId id : objects_) {
        if (!first_obj) line += ",";
        first_obj = false;
        const Duration window = metrics.window_of(id);
        const Duration distance = metrics.current_distance(id);
        const Duration margin = window - distance;
        line += "{\"id\":" + std::to_string(id);
        line += ",\"distance_ms\":" + fmt_ms(distance.millis());
        line += ",\"window_ms\":" + fmt_ms(window.millis());
        line += ",\"margin_ms\":" + fmt_ms(margin.millis());
        line += std::string(",\"downgraded\":") +
                (r.qos_downgrade_active(id) ? "true" : "false");
        line += "}";
      }
      line += "]";
    }

    line += "}\n";
    out_ << line;
    ++snapshots_;
  });
}

}  // namespace rtpb::core
