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
#include "telemetry/telemetry.hpp"
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

class Protocol {
 public:
  explicit Protocol(std::string name) : name_(std::move(name)) {}
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
  /// hops show up on a per-host, per-layer track.  Optional — protocols
  /// run fine without it.  Ids cached on first use belong to this hub, so
  /// it is attached once.
  void set_telemetry(telemetry::Hub* hub, net::NodeId node) {
    RTPB_EXPECTS(hub_ == nullptr || hub_ == hub);
    hub_ = hub;
    tele_node_ = node;
  }

 protected:
  /// The attached hub while it collects, else null.
  [[nodiscard]] telemetry::Hub* tele() const {
    return hub_ != nullptr && hub_->enabled() ? hub_ : nullptr;
  }
  /// Record an instant event on this protocol's track ("node<N>/<name>"),
  /// attached to the hub's current causal span.  `name_slot` caches the
  /// id of `name`; `render` formats the fields `a`..`c` into the detail.
  void tele_record(telemetry::Hub& hub, telemetry::TextId& name_slot, const char* name,
                   telemetry::Renderer render, std::uint64_t a = 0, std::uint64_t b = 0,
                   std::uint64_t c = 0) {
    if (tele_track_ == 0) {
      tele_track_ = hub.intern("node" + std::to_string(tele_node_) + "/" + name_);
    }
    hub.record({.at = hub.now(),
                .span = hub.current_span(),
                .a = a,
                .b = b,
                .c = c,
                .render = render,
                .node = tele_node_,
                .track = tele_track_,
                .name = hub.intern(name_slot, name)});
  }

 private:
  std::string name_;
  Protocol* down_ = nullptr;
  telemetry::Hub* hub_ = nullptr;
  telemetry::TextId tele_track_ = 0;
  net::NodeId tele_node_ = 0;
};

}  // namespace rtpb::xkernel
