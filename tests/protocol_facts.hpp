// One protocol fact, three reporting paths.  Tests that drive a fact the
// chaos goldens never reach assert with these helpers that the replica
// getters, the registry counter and the Hub event stream agree on how
// often it happened.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/rtpb.hpp"

namespace rtpb::facts {

/// Registry counter `name` (created at zero if nothing reported it yet).
inline std::uint64_t counter(telemetry::Hub& hub, const std::string& name) {
  return hub.registry().counter(name).value();
}

/// Retained Hub events named `name`.  Fails the test if the hub evicted
/// any event, since the count would then be short.
inline std::uint64_t events(const telemetry::Hub& hub, const std::string& name) {
  EXPECT_EQ(hub.dropped_events(), 0u) << "event ring too small to count '" << name << "'";
  std::uint64_t n = 0;
  for (const telemetry::Event& e : hub.events()) {
    if (hub.name_of(e) == name) ++n;
  }
  return n;
}

/// `getter` summed over every replica of `service`.
inline std::uint64_t sum(const core::RtpbService& service,
                         std::uint64_t (core::ReplicaServer::*getter)() const) {
  std::uint64_t total = 0;
  service.for_each_replica([&](const core::ReplicaServer& r) { total += (r.*getter)(); });
  return total;
}

}  // namespace rtpb::facts
