#include "net/network.hpp"

#include <algorithm>
#include <string>

#include "telemetry/telemetry.hpp"

namespace rtpb::net {

namespace {
/// The detail of a NetFact: `a` → `b` is the frame's link, `c` its size or
/// the corrupted byte.
void describe(const telemetry::Hub&, const telemetry::Event& e, telemetry::Part,
              std::string& out) {
  using telemetry::append;
  switch (static_cast<NetFact>(e.tag)) {
    case NetFact::kEnqueue: return append(out, "node", e.a, "->node", e.b, " ", e.c, "B");
    case NetFact::kCorrupt: return append(out, "node", e.a, "->node", e.b, " byte ", e.c);
    case NetFact::kDropMtu: return append(out, "node", e.a, "->node", e.b, " mtu");
    case NetFact::kDropBurst: return append(out, "node", e.a, "->node", e.b, " burst");
    case NetFact::kDropLoss: return append(out, "node", e.a, "->node", e.b, " loss");
    case NetFact::kDropNodeDown: return append(out, "node", e.b, " down");
    default: return append(out, "node", e.a, "->node", e.b);
  }
}
}  // namespace

Duration LinkParams::delay_bound(std::size_t frame_size) const {
  Duration tx = Duration::zero();
  if (bandwidth_bps > 0) {
    const double secs = static_cast<double>(frame_size) * 8.0 / bandwidth_bps;
    tx = Duration{static_cast<std::int64_t>(secs * 1e9 + 0.5)};
  }
  return tx + propagation + jitter;
}

Network::Network(sim::Simulator& sim)
    : sim_(sim), rng_(sim.rng().fork()), facts_("net", &describe, &sim.telemetry()) {}

NodeId Network::add_node(DeliveryFn on_deliver) {
  RTPB_EXPECTS(on_deliver != nullptr);
  const NodeId id = next_node_++;
  nodes_.emplace(id, Node{std::move(on_deliver), true});
  return id;
}

void Network::connect(NodeId a, NodeId b, LinkParams params) {
  RTPB_EXPECTS(nodes_.contains(a) && nodes_.contains(b));
  RTPB_EXPECTS(a != b);
  links_[{a, b}] = DirectedLink{params, {}, sim_.now()};
  links_[{b, a}] = DirectedLink{params, {}, sim_.now()};
}

Network::DirectedLink* Network::find_link(NodeId src, NodeId dst) {
  auto it = links_.find({src, dst});
  return it == links_.end() ? nullptr : &it->second;
}

bool Network::send(NodeId src, NodeId dst, Frame frame) {
  DirectedLink* link = find_link(src, dst);
  if (link == nullptr) {
    emit(NetFact::kNoLink, src, sim_.telemetry().current_span(), src, dst);
    return false;
  }
  ++link->stats.sent;

  telemetry::Hub& hub = sim_.telemetry();
  emit(NetFact::kSend, src, hub.current_span(), src, dst);

  if (link->params.mtu > 0 && frame.size() > link->params.mtu) {
    ++link->stats.mtu_drops;
    ++link->stats.dropped;
    emit(NetFact::kDropMtu, src, hub.current_span(), src, dst);
    return true;  // like UDP over a real link: silently gone
  }

  Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.frame = std::move(frame);
  pkt.seq = next_seq_++;
  pkt.span = hub.current_span();

  emit(NetFact::kEnqueue, src, pkt.span, src, dst, pkt.wire_size());

  const LinkFaults& faults = link->params.faults;

  // Every frame-fate decision routes through the simulator's choice seam:
  // with no policy installed, decide_fault() falls through to the same
  // bernoulli() call on the same RNG stream as before, so seeded chaos
  // digests are unchanged.  An explorer policy sees each frame on each
  // directed link as a potential branch point instead.
  const auto decide = [this, src, dst](sim::ChoiceKind kind, double p) {
    return sim_.decide_fault(sim::ChoiceContext{kind, p, src, dst}, rng_);
  };

  // Burst loss: an open burst swallows frames until it is spent; a fresh
  // burst may open on any frame.  Models correlated loss (collision storms,
  // a switch buffer overrun) rather than independent Bernoulli drops.
  bool burst_kill = false;
  if (link->burst_remaining > 0) {
    --link->burst_remaining;
    burst_kill = true;
  } else if (faults.burst_loss_probability > 0.0 &&
             decide(sim::ChoiceKind::kFrameBurst, faults.burst_loss_probability)) {
    link->burst_remaining = faults.burst_length > 0 ? faults.burst_length - 1 : 0;
    burst_kill = true;
  }
  if (burst_kill) {
    ++link->stats.dropped;
    ++link->stats.burst_dropped;
    emit(NetFact::kDropBurst, src, pkt.span, src, dst);
    return true;
  }

  if (decide(sim::ChoiceKind::kFrameLoss, link->params.loss_probability)) {
    ++link->stats.dropped;
    emit(NetFact::kDropLoss, src, pkt.span, src, dst);
    return true;  // sender cannot tell — fire and forget
  }

  // Corruption: flip one random bit and deliver anyway — detecting it is
  // the transport checksum's job.  The flip copies the body first: other
  // frames (the same update to other backups) share it.
  if (faults.corrupt_probability > 0.0 && !pkt.frame.empty() &&
      decide(sim::ChoiceKind::kFrameCorrupt, faults.corrupt_probability)) {
    const std::size_t skip = std::min(faults.corrupt_skip, pkt.frame.size() - 1);
    const auto idx = static_cast<std::size_t>(
        rng_.uniform(static_cast<std::int64_t>(skip),
                     static_cast<std::int64_t>(pkt.frame.size() - 1)));
    pkt.frame.flip(idx, static_cast<std::uint8_t>(1u << rng_.uniform(0, 7)));
    ++link->stats.corrupted;
    emit(NetFact::kCorrupt, src, pkt.span, src, dst, idx);
  }

  Duration delay = Duration::zero();
  if (link->params.bandwidth_bps > 0) {
    const double secs = static_cast<double>(pkt.wire_size()) * 8.0 / link->params.bandwidth_bps;
    delay += Duration{static_cast<std::int64_t>(secs * 1e9 + 0.5)};
  }
  delay += link->params.propagation;
  if (link->params.jitter > Duration::zero()) {
    delay += Duration{rng_.uniform(0, link->params.jitter.nanos() - 1)};
  }

  TimePoint deliver_at = sim_.now() + delay;
  const bool reordered = faults.reorder_probability > 0.0 &&
                         decide(sim::ChoiceKind::kFrameReorder, faults.reorder_probability);
  if (reordered) {
    // Exempt the frame from the FIFO floor and hold it back a little, so
    // frames sent after it can (and usually do) overtake it.
    if (faults.reorder_extra > Duration::zero()) {
      deliver_at += Duration{rng_.uniform(0, faults.reorder_extra.nanos())};
    }
    ++link->stats.reordered;
    emit(NetFact::kReorder, src, pkt.span, src, dst);
  } else {
    // Preserve FIFO per direction.
    deliver_at = std::max(deliver_at, link->last_delivery);
    link->last_delivery = deliver_at;
  }
  link->stats.delays_ms.add((deliver_at - sim_.now()).millis());
  facts_.emit(NetFact::kDelay, {.value = (deliver_at - sim_.now()).nanos()});

  if (faults.duplicate_probability > 0.0 &&
      decide(sim::ChoiceKind::kFrameDuplicate, faults.duplicate_probability)) {
    Duration dup_delay = link->params.propagation;
    if (link->params.jitter > Duration::zero()) {
      dup_delay += Duration{rng_.uniform(0, link->params.jitter.nanos() - 1)};
    }
    ++link->stats.duplicated;
    emit(NetFact::kDuplicate, src, pkt.span, src, dst);
    schedule_delivery(pkt, std::max(deliver_at, sim_.now() + delay + dup_delay));
  }

  schedule_delivery(std::move(pkt), deliver_at);
  return true;
}

void Network::schedule_delivery(Packet pkt, TimePoint at) {
  const sim::EventTag tag{sim::kTagNetDelivery, pkt.dst, pkt.src};
  std::uint32_t index = 0;
  if (free_in_flight_.empty()) {
    index = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.push_back(std::move(pkt));
  } else {
    index = free_in_flight_.back();
    free_in_flight_.pop_back();
    in_flight_[index] = std::move(pkt);
  }
  sim_.schedule_at(at, tag, [this, index] { deliver(index); });
}

void Network::deliver(std::uint32_t index) {
  // Take the frame out first: the delivery may send, and a send may grow
  // in_flight_.
  const Packet pkt = std::move(in_flight_[index]);
  free_in_flight_.push_back(index);
  telemetry::Hub& hub = sim_.telemetry();
  auto node_it = nodes_.find(pkt.dst);
  if (node_it == nodes_.end() || !node_it->second.up) {
    if (DirectedLink* l = find_link(pkt.src, pkt.dst)) ++l->stats.dropped;
    emit(NetFact::kDropNodeDown, pkt.dst, pkt.span, pkt.src, pkt.dst);
    return;
  }
  if (DirectedLink* l = find_link(pkt.src, pkt.dst)) ++l->stats.delivered;
  emit(NetFact::kDeliver, pkt.dst, pkt.span, pkt.src, pkt.dst);
  // Propagate the frame's causal span to everything the delivery triggers
  // synchronously: demux up the x-kernel stack and the backup apply path.
  telemetry::ScopedSpan span_scope(hub, pkt.span);
  node_it->second.on_deliver(pkt);
}

void Network::set_node_up(NodeId node, bool up) {
  auto it = nodes_.find(node);
  RTPB_EXPECTS(it != nodes_.end());
  it->second.up = up;
}

void Network::set_loss_probability(NodeId a, NodeId b, double p) {
  RTPB_EXPECTS(p >= 0.0 && p <= 1.0);
  if (DirectedLink* l = find_link(a, b)) l->params.loss_probability = p;
  if (DirectedLink* l = find_link(b, a)) l->params.loss_probability = p;
}

void Network::set_bandwidth(NodeId a, NodeId b, double bps) {
  if (DirectedLink* l = find_link(a, b)) l->params.bandwidth_bps = bps;
  if (DirectedLink* l = find_link(b, a)) l->params.bandwidth_bps = bps;
}

void Network::set_propagation(NodeId a, NodeId b, Duration propagation) {
  RTPB_EXPECTS(propagation >= Duration::zero());
  if (DirectedLink* l = find_link(a, b)) l->params.propagation = propagation;
  if (DirectedLink* l = find_link(b, a)) l->params.propagation = propagation;
}

void Network::set_faults(NodeId a, NodeId b, const LinkFaults& faults) {
  RTPB_EXPECTS(faults.duplicate_probability >= 0.0 && faults.duplicate_probability <= 1.0);
  RTPB_EXPECTS(faults.reorder_probability >= 0.0 && faults.reorder_probability <= 1.0);
  RTPB_EXPECTS(faults.corrupt_probability >= 0.0 && faults.corrupt_probability <= 1.0);
  RTPB_EXPECTS(faults.burst_loss_probability >= 0.0 && faults.burst_loss_probability <= 1.0);
  RTPB_EXPECTS(faults.reorder_extra >= Duration::zero());
  for (DirectedLink* l : {find_link(a, b), find_link(b, a)}) {
    if (l == nullptr) continue;
    l->params.faults = faults;
    // A dead burst knob must not keep killing frames.
    if (faults.burst_loss_probability <= 0.0) l->burst_remaining = 0;
  }
}

const LinkFaults& Network::faults(NodeId a, NodeId b) const {
  auto it = links_.find({a, b});
  RTPB_EXPECTS(it != links_.end());
  return it->second.params.faults;
}

const LinkStats& Network::stats(NodeId a, NodeId b) const {
  auto it = links_.find({a, b});
  RTPB_EXPECTS(it != links_.end());
  return it->second.stats;
}

std::optional<LinkParams> Network::link_params(NodeId a, NodeId b) const {
  auto it = links_.find({a, b});
  if (it == links_.end()) return std::nullopt;
  return it->second.params;
}

}  // namespace rtpb::net
