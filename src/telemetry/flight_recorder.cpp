#include "telemetry/flight_recorder.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>

#include "telemetry/export.hpp"
#include "util/assert.hpp"

namespace rtpb::telemetry {

const char* flight_kind_name(FlightKind k) {
  switch (k) {
    case FlightKind::kRoleChange: return "role-change";
    case FlightKind::kEpoch: return "epoch";
    case FlightKind::kUpdateSend: return "update-send";
    case FlightKind::kUpdateBatch: return "update-batch";
    case FlightKind::kUpdateApply: return "update-apply";
    case FlightKind::kAck: return "ack";
    case FlightKind::kRetransmitReq: return "retransmit-req";
    case FlightKind::kShed: return "shed";
    case FlightKind::kQosDowngrade: return "qos-downgrade";
    case FlightKind::kQosRestore: return "qos-restore";
    case FlightKind::kCrash: return "crash";
    case FlightKind::kOracleCheck: return "oracle-check";
    case FlightKind::kViolation: return "violation";
    case FlightKind::kTrigger: return "trigger";
  }
  return "?";
}

void FlightRecorder::enable(std::size_t capacity) {
  RTPB_EXPECTS(capacity > 0);
  if (ring_.size() != capacity) {
    ring_.assign(capacity, FlightRecord{});
    head_ = 0;
    size_ = 0;
  }
  enabled_ = true;
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  std::vector<FlightRecord> out;
  out.reserve(size_);
  // Oldest record sits at head_ once the ring has wrapped, at 0 before.
  const std::size_t start = size_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void FlightRecorder::dump(std::ostream& os, const std::string& reason, TimePoint at) const {
  std::string line = "{\"type\":\"postmortem\",\"version\":1,\"reason\":\"";
  json_escape_into(line, reason);
  char buf[96];
  std::snprintf(buf, sizeof buf, "\",\"at_ms\":%.6f,\"recorded\":%llu,\"retained\":%llu,"
                "\"overwritten\":%llu}\n",
                at.millis(), static_cast<unsigned long long>(recorded_),
                static_cast<unsigned long long>(size_),
                static_cast<unsigned long long>(overwritten_));
  line += buf;
  os << line;
  for (const FlightRecord& r : snapshot()) {
    line = "{\"type\":\"fr\"";
    std::snprintf(buf, sizeof buf, ",\"ts_ms\":%.6f,\"node\":%u,\"kind\":\"%s\"",
                  r.at.millis(), r.node, flight_kind_name(r.kind));
    line += buf;
    if (r.object != 0) line += ",\"object\":" + std::to_string(r.object);
    if (r.version != 0) line += ",\"version\":" + std::to_string(r.version);
    if (r.epoch != 0) line += ",\"epoch\":" + std::to_string(r.epoch);
    if (r.span != 0) line += ",\"span\":" + std::to_string(r.span);
    if (r.arg != 0) line += ",\"arg\":" + std::to_string(r.arg);
    if (r.label != nullptr) {
      line += ",\"label\":\"";
      json_escape_into(line, r.label);
      line += '"';
    }
    line += "}\n";
    os << line;
  }
}

bool FlightRecorder::trigger_dump(const std::string& reason, TimePoint at) {
  if (!enabled_) return false;
  record(FlightRecord{at, 0, 0, 0, 0, 0, nullptr, 0, FlightKind::kTrigger});
  if (dumped_ || dump_path_.empty()) return false;
  std::ofstream out(dump_path_);
  if (!out) return false;
  dump(out, reason, at);
  dumped_ = true;
  dump_reason_ = reason;
  return true;
}

void FlightRecorder::clear() {
  head_ = 0;
  size_ = 0;
  recorded_ = 0;
  overwritten_ = 0;
  dumped_ = false;
  dump_reason_.clear();
}

}  // namespace rtpb::telemetry
