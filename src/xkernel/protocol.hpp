// x-kernel uniform protocol interface (Hutchinson & Peterson).
//
// A Protocol object sits at a fixed place in a per-host protocol graph.
// Downcalls travel via push() (xPush), upcalls via demux() (xDemux).  The
// graph is composed at configuration time (see graph.hpp), mirroring the
// x-kernel's graph.comp: protocols are written against the uniform
// interface and can be stacked in any compatible order.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "net/address.hpp"
#include "telemetry/facts.hpp"
#include "util/assert.hpp"
#include "xkernel/message.hpp"

namespace rtpb::xkernel {

/// Demux attributes that accompany a message on its way up the stack.
/// Lower protocols fill in what they know (SIMETH the nodes, UDPLITE the
/// ports).
struct MsgAttrs {
  net::Endpoint src;
  net::Endpoint dst;
};

/// An open channel through a protocol (x-kernel's session object): the
/// demux keys are fixed at open time, so per-message work is reduced to
/// prepending a precomputed header template.  Obtained via a protocol's
/// open() and used for repeated sends to the same participant.
class Session {
 public:
  virtual ~Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// xPush on the open channel.
  virtual void push(Message& msg) = 0;
  [[nodiscard]] const net::Endpoint& remote() const { return remote_; }
  [[nodiscard]] const net::Endpoint& local() const { return local_; }

 protected:
  Session(net::Endpoint local, net::Endpoint remote) : local_(local), remote_(remote) {}
  net::Endpoint local_;
  net::Endpoint remote_;
};

/// What happens to messages in the four protocols.  A fact also counted
/// as another shares that one's registry counter.
enum class LayerFact : std::uint8_t {
  kEthSend, kEthReceive, kEthNoUpper,                          // SIMETH
  kIpPush, kIpDemux, kIpBadHeader, kIpRunt, kIpUnknownProto,   // IPLITE
  kUdpPush, kUdpDemux, kUdpChecksum, kUdpRunt, kUdpNoListener,  // UDPLITE
  kFragPush, kFragment, kFragReassembled, kFragWhole, kFragTimeout,  // FRAGLITE
  kFragBad, kFragDuplicate,
  kCount
};

constexpr telemetry::FactSinks<LayerFact> fact_sinks(LayerFact f) {
  switch (f) {
    case LayerFact::kEthSend: return {.counter = "xkernel.simeth.frames_sent",
                                      .event = "eth-push"};
    case LayerFact::kEthReceive: return {.counter = "xkernel.simeth.frames_received",
                                         .event = "eth-demux"};
    case LayerFact::kEthNoUpper: return {.counter = "xkernel.simeth.no_upper",
                                         .event = "eth-drop"};
    case LayerFact::kIpPush: return {.counter = "xkernel.iplite.pushes", .event = "ip-push"};
    case LayerFact::kIpDemux: return {.counter = "xkernel.iplite.demuxes", .event = "ip-demux"};
    case LayerFact::kIpBadHeader: return {.counter = "xkernel.iplite.bad_headers",
                                          .event = "ip-drop"};
    case LayerFact::kIpRunt: return {.event = "ip-drop", .also = LayerFact::kIpBadHeader};
    case LayerFact::kIpUnknownProto: return {.counter = "xkernel.iplite.unknown_proto",
                                             .event = "ip-drop"};
    case LayerFact::kUdpPush: return {.counter = "xkernel.udplite.pushes", .event = "udp-push"};
    case LayerFact::kUdpDemux: return {.counter = "xkernel.udplite.demuxes",
                                       .event = "udp-demux"};
    case LayerFact::kUdpChecksum: return {.counter = "xkernel.udplite.checksum_failures",
                                          .event = "udp-drop"};
    case LayerFact::kUdpRunt: return {.event = "udp-drop", .also = LayerFact::kUdpChecksum};
    case LayerFact::kUdpNoListener: return {.counter = "xkernel.udplite.no_listener",
                                            .event = "udp-drop"};
    case LayerFact::kFragPush: return {.counter = "xkernel.fraglite.messages_sent",
                                       .event = "frag-push"};
    case LayerFact::kFragment: return {};
    case LayerFact::kFragReassembled: return {.counter = "xkernel.fraglite.messages_reassembled",
                                              .event = "frag-demux"};
    case LayerFact::kFragWhole: return {.event = "frag-demux",
                                        .also = LayerFact::kFragReassembled};
    case LayerFact::kFragTimeout: return {.counter = "xkernel.fraglite.reassembly_timeouts",
                                          .event = "frag-timeout"};
    case LayerFact::kFragBad: return {};
    case LayerFact::kFragDuplicate: return {};
    case LayerFact::kCount: break;
  }
  return {};
}

/// The detail of a LayerFact, from its fields.
void render_layer_fact(const telemetry::Hub& hub, const telemetry::Event& e,
                       telemetry::Part part, std::string& out);

class Protocol {
 public:
  explicit Protocol(std::string name)
      : name_(std::move(name)), facts_(name_, &render_layer_fact) {}
  virtual ~Protocol() = default;

  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  [[nodiscard]] std::string_view name() const { return name_; }

  /// xPush: accept a message from the protocol above and move it toward
  /// the wire.  `attrs` names the intended destination endpoint.
  virtual void push(Message& msg, const MsgAttrs& attrs) = 0;

  /// xDemux: accept a message from the protocol below and deliver it to
  /// the protocol above (or consume it).
  virtual void demux(Message& msg, MsgAttrs& attrs) = 0;

  /// Wire this protocol above `down` in the graph.
  void connect_down(Protocol& down) { down_ = &down; }
  [[nodiscard]] Protocol* down() const { return down_; }

  /// Attach the telemetry hub and the owning host's node id so xPush/xPop
  /// hops show up on a per-host, per-layer track ("node<N>/<name>").
  /// Optional — without it a protocol only keeps its totals.
  void set_telemetry(telemetry::Hub* hub, net::NodeId node) {
    RTPB_EXPECTS(hub != nullptr);
    facts_.attach(*hub);
    node_ = node;
  }

 protected:
  /// Report `f` with fields `a`..`c`, under the hub's current causal span.
  void emit(LayerFact f, std::uint64_t a = 0, std::uint64_t b = 0, std::uint64_t c = 0) {
    const telemetry::Hub* hub = facts_.hub();
    facts_.emit(f, {.a = a,
                    .b = b,
                    .c = c,
                    .span = hub != nullptr ? hub->current_span() : telemetry::kNoSpan,
                    .node = node_});
  }
  [[nodiscard]] std::uint64_t count(LayerFact f) const { return facts_.count(f); }

 private:
  std::string name_;
  Protocol* down_ = nullptr;
  telemetry::Facts<LayerFact> facts_;
  net::NodeId node_ = 0;
};

}  // namespace rtpb::xkernel
