// Point-to-point link fabric with the failure model the paper assumes
// (§4.1): a known upper bound ℓ on delay, message loss (Bernoulli, i.e.
// the "performance failures" of an overloaded LAN), no partitions — a
// down node simply stops receiving.
//
// Delay model per packet: transmission (wire_size / bandwidth) +
// propagation (base + uniform jitter), FIFO-preserved per direction.
// With jitter j, the delay bound to feed admission control is
// ℓ = tx(max frame) + base + j.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "telemetry/facts.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace rtpb::net {

/// Chaos-injection knobs beyond plain Bernoulli loss (all off by default).
/// These deliberately break the link assumptions admission control relies
/// on (bounded delay, FIFO order), so experiments that enable them must
/// declare the interval as a fault epoch when judging consistency.
struct LinkFaults {
  double duplicate_probability = 0.0;   ///< deliver an extra copy with fresh delay
  double reorder_probability = 0.0;     ///< exempt a frame from FIFO, delay it extra
  Duration reorder_extra = millis(2);   ///< max extra delay for a reordered frame
  double corrupt_probability = 0.0;     ///< flip one random frame bit, still deliver
  /// First frame bytes spared by corruption (0 = corrupt anywhere).  Tests
  /// that assert on transport checksum detection aim past the lower-layer
  /// headers so every flip lands in the checksummed datagram body.
  std::size_t corrupt_skip = 0;
  double burst_loss_probability = 0.0;  ///< per-frame chance to open a drop burst
  std::uint32_t burst_length = 4;       ///< consecutive frames killed per burst
};

struct LinkParams {
  Duration propagation = millis(1);     ///< fixed one-way latency component
  Duration jitter = Duration::zero();   ///< uniform extra in [0, jitter)
  double loss_probability = 0.0;        ///< independent per-packet drop
  double bandwidth_bps = 10e6;          ///< 10 Mb/s LAN by default; <=0 → infinite
  std::size_t mtu = 1500;               ///< max frame payload; 0 → unlimited
  LinkFaults faults;                    ///< chaos knobs (duplication/reorder/…)
  /// Upper bound ℓ on one-way delay for a frame of `frame_size` bytes
  /// (assuming the fault knobs are quiet).
  [[nodiscard]] Duration delay_bound(std::size_t frame_size) const;
};

struct LinkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t mtu_drops = 0;      ///< frames exceeding the link MTU
  std::uint64_t burst_dropped = 0;  ///< frames killed inside a loss burst
  std::uint64_t duplicated = 0;     ///< frames delivered twice
  std::uint64_t reordered = 0;      ///< frames exempted from FIFO ordering
  std::uint64_t corrupted = 0;      ///< frames delivered with a flipped bit
  RunningStats delays_ms;           ///< one-way frame delays (moments only, no samples)
};

/// What happens to frames on the links.  A drop is one of the four
/// reasons and also counts as kDrop.  A queued frame's fate (enqueue,
/// corruption, reordering, duplication, a burst or loss drop) feeds the
/// trace digest.
enum class NetFact : std::uint8_t {
  kSend, kEnqueue, kDelay, kDeliver, kCorrupt, kReorder, kDuplicate,
  kDrop, kDropMtu, kDropBurst, kDropLoss, kDropNodeDown,
  kCount
};

constexpr telemetry::FactSinks<NetFact> fact_sinks(NetFact f) {
  switch (f) {
    case NetFact::kSend: return {.counter = "net.link.sends"};
    case NetFact::kEnqueue: return {.event = "net-enqueue", .digest = true};
    case NetFact::kDelay: return {.histogram = "net.link.delay_ms", .duration = true};
    case NetFact::kDeliver: return {.counter = "net.link.delivers", .event = "net-deliver"};
    case NetFact::kCorrupt: return {.counter = "net.link.corrupted", .event = "net-corrupt",
                                    .digest = true};
    case NetFact::kReorder: return {.counter = "net.link.reordered", .digest = true};
    case NetFact::kDuplicate: return {.counter = "net.link.duplicated", .digest = true};
    case NetFact::kDrop: return {.counter = "net.link.drops"};
    case NetFact::kDropMtu: return {.counter = "net.link.drops_mtu", .event = "net-drop",
                                    .also = NetFact::kDrop};
    case NetFact::kDropBurst: return {.counter = "net.link.drops_burst", .event = "net-drop",
                                      .also = NetFact::kDrop, .digest = true};
    case NetFact::kDropLoss: return {.counter = "net.link.drops_loss", .event = "net-drop",
                                     .also = NetFact::kDrop, .digest = true};
    case NetFact::kDropNodeDown: return {.counter = "net.link.drops_node_down",
                                         .event = "net-drop", .also = NetFact::kDrop};
    case NetFact::kCount: break;
  }
  return {};
}

class Network {
 public:
  explicit Network(sim::Simulator& sim);

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  using DeliveryFn = std::function<void(const Packet&)>;

  /// Register a host.  `on_deliver` is invoked, in virtual time, for each
  /// packet that survives the link.
  NodeId add_node(DeliveryFn on_deliver);

  /// Create (or replace) the bidirectional link between two hosts.
  void connect(NodeId a, NodeId b, LinkParams params);

  /// Inject a frame (a plain Bytes payload converts to a header-less
  /// one).  Returns false if there is no link or the destination is down
  /// (callers treat both as silent loss — UDP).
  bool send(NodeId src, NodeId dst, Frame frame);

  /// Crash / restore a node.  A down node receives nothing; packets to it
  /// count as dropped.
  void set_node_up(NodeId node, bool up);

  /// Update loss probability mid-run (failure injection).
  void set_loss_probability(NodeId a, NodeId b, double p);

  /// Update bandwidth mid-run, both directions (overload injection:
  /// `throttle_bandwidth`).  <=0 → infinite, matching LinkParams.  Queued
  /// deliveries keep their already-computed times; only frames sent after
  /// the change see the new transmission delay.
  void set_bandwidth(NodeId a, NodeId b, double bps);

  /// Update base propagation delay mid-run, both directions (overload
  /// injection: `inflate_latency`).  FIFO per direction is preserved — a
  /// shrink cannot reorder behind the queued floor.
  void set_propagation(NodeId a, NodeId b, Duration propagation);

  /// Replace the chaos knobs of the link, both directions (failure
  /// injection).  Delay/bandwidth parameters are untouched.
  void set_faults(NodeId a, NodeId b, const LinkFaults& faults);
  /// Current chaos knobs of the a→b direction (for read-modify-write
  /// injection of a single knob).
  [[nodiscard]] const LinkFaults& faults(NodeId a, NodeId b) const;

  [[nodiscard]] const LinkStats& stats(NodeId a, NodeId b) const;
  [[nodiscard]] std::optional<LinkParams> link_params(NodeId a, NodeId b) const;

 private:
  struct DirectedLink {
    LinkParams params;
    LinkStats stats;
    TimePoint last_delivery{};        ///< FIFO floor for this direction
    std::uint32_t burst_remaining = 0;  ///< frames left to kill in an open burst
  };
  struct Node {
    DeliveryFn on_deliver;
    bool up = true;
  };

  using LinkKey = std::pair<NodeId, NodeId>;  // directed (src, dst)

  DirectedLink* find_link(NodeId src, NodeId dst);
  /// Hand `pkt` to the destination at virtual time `at` (if it is still up).
  void schedule_delivery(Packet pkt, TimePoint at);
  /// The delivery event of in_flight_[index].
  void deliver(std::uint32_t index);
  /// Report `f` about the frame `src` → `dst` on `node`'s "node<N>/net"
  /// track; `c` is a byte count or offset.
  void emit(NetFact f, NodeId node, telemetry::SpanId span, NodeId src, NodeId dst,
            std::uint64_t c = 0) {
    facts_.emit(f, {.a = src, .b = dst, .c = c, .span = span, .node = node});
  }

  sim::Simulator& sim_;
  Rng rng_;
  std::map<NodeId, Node> nodes_;
  std::map<LinkKey, DirectedLink> links_;
  /// Frames awaiting delivery, recycled through a free list.  A delivery
  /// event captures its frame's index here, which keeps event closures
  /// small.
  std::vector<Packet> in_flight_;
  std::vector<std::uint32_t> free_in_flight_;
  NodeId next_node_ = 1;
  std::uint64_t next_seq_ = 1;

  telemetry::Facts<NetFact> facts_;
};

}  // namespace rtpb::net
