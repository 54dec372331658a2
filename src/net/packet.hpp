// A frame in flight on the simulated network.  The frame is the header
// bytes the x-kernel protocol stack pushed (link header and up) in front
// of the shared message body; wire_size additionally accounts for framing
// overhead so bandwidth modelling sees realistic sizes.
#pragma once

#include <cstdint>

#include "net/address.hpp"
#include "util/frame.hpp"

namespace rtpb::net {

struct Packet {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Frame frame;
  std::uint64_t seq = 0;   ///< network-assigned, for tracing
  std::uint64_t span = 0;  ///< causal telemetry span (not on the wire; 0 = none)

  [[nodiscard]] std::size_t wire_size() const { return frame.size() + kFramingOverhead; }
  static constexpr std::size_t kFramingOverhead = 18;  // Ethernet-ish header+FCS
};

}  // namespace rtpb::net
