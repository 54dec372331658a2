// Pins the exported text of the Hub recording sites that the chaos
// goldens never reach.  The first scenario drives a multi-fragment
// FragLite push, a missed deadline, a preemption, MTU / node-down /
// corruption drops on a link, and a UdpLite checksum drop.  The second
// drives the link's Bernoulli-loss, burst-loss, duplication and reorder
// fates, IpLite's runt, bad-header and unknown-protocol drops, SimEth's
// and UdpLite's undeliverable frames, a FragLite reassembly timeout and a
// failure detector's ping misses, peer death and stale ack.  Each runs
// with the Hub on; its JSONL stream, Chrome trace and registry JSON are
// compared against checksums recorded inline, so a change to how a fact
// is counted, stored or rendered must leave every byte unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/heartbeat.hpp"
#include "net/network.hpp"
#include "sched/cpu.hpp"
#include "sim/simulator.hpp"
#include "telemetry/export.hpp"
#include "util/bytebuffer.hpp"
#include "xkernel/fraglite.hpp"
#include "xkernel/graph.hpp"

namespace rtpb {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Renders the detail an event carries as an interned text in `a`.
void render_interned(const telemetry::Hub& hub, const telemetry::Event& e, telemetry::Part,
                     std::string& out) {
  out += hub.text(static_cast<telemetry::TextId>(e.a));
}

struct Exports {
  std::string jsonl;
  std::string chrome;
  std::string registry;
};

Exports exports_of(const telemetry::Hub& hub) {
  Exports out;
  std::ostringstream jsonl;
  telemetry::write_jsonl(hub, jsonl);
  out.jsonl = jsonl.str();
  std::ostringstream chrome;
  telemetry::write_chrome_trace(hub, chrome);
  out.chrome = chrome.str();
  out.registry = hub.registry().to_json();
  return out;
}

/// Runs the scenario and returns both exports of its Hub.
Exports run_scenario() {
  sim::Simulator sim(11);
  telemetry::Hub& hub = sim.telemetry();
  hub.enable();
  net::Network network(sim);
  xkernel::HostStack a(network);
  xkernel::HostStack b(network);
  net::LinkParams link;
  link.mtu = 600;
  network.connect(a.node(), b.node(), link);

  // FragLite on both hosts over UDP port 7; a 700 B message splits into
  // three 256 B-payload fragments.
  xkernel::FragLite frag_a(sim, 256);
  frag_a.set_telemetry(&hub, a.node());
  frag_a.connect_down(a.udp());
  xkernel::FragLite frag_b(sim, 256);
  frag_b.set_telemetry(&hub, b.node());
  frag_b.connect_down(b.udp());
  std::size_t reassembled = 0;
  frag_b.set_handler([&](xkernel::Message& msg, const xkernel::MsgAttrs&) {
    reassembled += msg.size();
  });
  b.udp().bind(7, [&](xkernel::Message& msg, const xkernel::MsgAttrs& attrs) {
    xkernel::MsgAttrs up = attrs;
    frag_b.demux(msg, up);
  });
  b.udp().bind(9, [](xkernel::Message&, const xkernel::MsgAttrs&) {});

  const net::Endpoint to_frag{b.node(), 7};
  const net::Endpoint to_plain{b.node(), 9};
  sim.schedule_at(TimePoint::zero() + millis(1), [&] {
    xkernel::Message msg{Bytes(700, 0x5a)};
    xkernel::MsgAttrs attrs;
    attrs.src = net::Endpoint{a.node(), 7};
    attrs.dst = to_frag;
    const telemetry::ScopedSpan in_span(hub, hub.begin_span(1, 1));
    frag_a.push(msg, attrs);
  });
  // Over the 600 B MTU: dropped on the link.
  sim.schedule_at(TimePoint::zero() + millis(10),
                  [&] { a.send_datagram(5, to_plain, Bytes(1000, 0x11)); });
  // Every frame corrupted past the IP and UDP headers: the UDP checksum
  // catches the flip.
  sim.schedule_at(TimePoint::zero() + millis(20), [&] {
    net::LinkFaults faults;
    faults.corrupt_probability = 1.0;
    faults.corrupt_skip = xkernel::IpLite::kHeaderSize + xkernel::UdpLite::kHeaderSize;
    network.set_faults(a.node(), b.node(), faults);
    a.send_datagram(5, to_plain, Bytes(100, 0x22));
    network.set_faults(a.node(), b.node(), net::LinkFaults{});
  });
  // The receiver is down when the frame lands.
  sim.schedule_at(TimePoint::zero() + millis(30), [&] {
    network.set_node_up(b.node(), false);
    a.send_datagram(5, to_plain, Bytes(40, 0x33));
  });
  sim.schedule_at(TimePoint::zero() + millis(35), [&] { network.set_node_up(b.node(), true); });

  // Under RM the 10 ms task preempts the long one, which then finishes
  // past its 31 ms deadline.
  sched::Cpu cpu(sim, sched::Policy::kRateMonotonic, "pin-cpu");
  sched::TaskSpec slow;
  slow.name = "slow";
  slow.period = millis(100);
  slow.wcet = millis(30);
  slow.deadline = millis(31);
  cpu.add_task(slow, nullptr);
  sched::TaskSpec fast;
  fast.name = "fast";
  fast.period = millis(10);
  fast.wcet = millis(4);
  fast.phase = millis(1);
  cpu.add_task(fast, nullptr);
  cpu.start(TimePoint::zero());

  sim.run_until(TimePoint::zero() + millis(60));
  EXPECT_EQ(reassembled, 700u);
  // A violation blamed on the span, with a free-text detail the way an
  // oracle reports one: interned, and rendered from field `a`.
  const telemetry::SpanId guilty = hub.span_for(1, 1);
  hub.mark_violation(guilty, "pin-oracle");
  hub.record({.at = hub.now(),
              .span = guilty,
              .a = hub.intern("free \"text\""),
              .render = &render_interned,
              .track = hub.intern("oracle"),
              .name = hub.intern("violation:pin-oracle")});
  return exports_of(hub);
}

/// Runs the second scenario and returns the exports of its Hub.
Exports run_drop_scenario() {
  sim::Simulator sim(12);
  telemetry::Hub& hub = sim.telemetry();
  hub.enable();
  net::Network network(sim);
  xkernel::HostStack a(network);
  xkernel::HostStack b(network);
  network.connect(a.node(), b.node(), net::LinkParams{});
  // A host with nothing configured above its SimEth.
  xkernel::SimEth bare(network);
  bare.set_telemetry(&hub, bare.node());
  network.connect(a.node(), bare.node(), net::LinkParams{});

  xkernel::FragLite frag_b(sim, 256, millis(5));
  frag_b.set_telemetry(&hub, b.node());
  frag_b.connect_down(b.udp());
  frag_b.set_handler([](xkernel::Message&, const xkernel::MsgAttrs&) {});
  b.udp().bind(7, [&](xkernel::Message& msg, const xkernel::MsgAttrs& attrs) {
    xkernel::MsgAttrs up = attrs;
    frag_b.demux(msg, up);
  });
  b.udp().bind(9, [](xkernel::Message&, const xkernel::MsgAttrs&) {});

  const net::Endpoint to_plain{b.node(), 9};
  const auto at = [&](int ms, auto fn) { sim.schedule_at(TimePoint::zero() + millis(ms), fn); };
  // Each fault run is one update's span, so its drops and deliveries
  // carry the span the send was scoped in.
  std::uint64_t version = 0;
  const auto with_faults = [&](const net::LinkFaults& faults, int frames) {
    const telemetry::ScopedSpan in_span(hub, hub.begin_span(2, ++version));
    network.set_faults(a.node(), b.node(), faults);
    for (int i = 0; i < frames; ++i) {
      a.send_datagram(5, to_plain, Bytes(32, static_cast<std::uint8_t>(i)));
    }
    network.set_faults(a.node(), b.node(), net::LinkFaults{});
  };
  // Bernoulli loss swallows one datagram.
  at(1, [&] {
    network.set_loss_probability(a.node(), b.node(), 1.0);
    a.send_datagram(5, to_plain, Bytes(32, 0x01));
    network.set_loss_probability(a.node(), b.node(), 0.0);
  });
  // A two-frame burst opens on the first datagram and takes the second.
  at(2, [&] {
    net::LinkFaults burst;
    burst.burst_loss_probability = 1.0;
    burst.burst_length = 2;
    with_faults(burst, 2);
  });
  // One datagram delivered twice, then two held back out of FIFO order.
  at(3, [&] {
    net::LinkFaults dup;
    dup.duplicate_probability = 1.0;
    with_faults(dup, 1);
  });
  at(4, [&] {
    net::LinkFaults reorder;
    reorder.reorder_probability = 1.0;
    with_faults(reorder, 2);
  });
  // Raw frames IpLite refuses: a runt, a length that does not match, and
  // a protocol nothing registered.
  at(8, [&] { network.send(a.node(), b.node(), Bytes(5, 0x02)); });
  at(9, [&] { network.send(a.node(), b.node(), Bytes(20, 0x00)); });
  at(10, [&] {
    HeaderWriter<xkernel::IpLite::kHeaderSize> ip;
    ip.u32(a.node());
    ip.u32(b.node());
    ip.u8(99);
    ip.u32(4);
    Bytes frame(ip.data().begin(), ip.data().end());
    frame.insert(frame.end(), 4, 0x03);
    network.send(a.node(), b.node(), std::move(frame));
  });
  // A frame for the bare host, and a datagram to a port nobody bound.
  at(11, [&] { network.send(a.node(), bare.node(), Bytes(8, 0x04)); });
  at(12, [&] { a.send_datagram(5, net::Endpoint{b.node(), 11}, Bytes(16, 0x05)); });
  // The first of two fragments; the second never comes and the
  // reassembly times out 5 ms later.
  at(13, [&] {
    HeaderWriter<xkernel::FragLite::kHeaderSize> frag;
    frag.u32(77);
    frag.u16(0);
    frag.u16(2);
    frag.u32(20);
    Bytes datagram(frag.data().begin(), frag.data().end());
    datagram.insert(datagram.end(), 10, 0x06);
    a.send_datagram(5, net::Endpoint{b.node(), 7}, std::move(datagram));
  });

  // Nobody answers: two missed pings declare the peer dead, and an ack
  // for a ping never sent is stale.
  core::FailureDetector detector(
      sim, {.ping_period = millis(4), .ack_timeout = millis(2), .max_misses = 2},
      [](std::uint64_t) {}, [] {});
  detector.start();
  at(20, [&] { detector.on_ping_ack(99); });

  sched::Cpu cpu(sim, sched::Policy::kEdf, "drop-cpu");
  sched::TaskSpec tick;
  tick.name = "tick";
  tick.period = millis(10);
  tick.wcet = millis(1);
  cpu.add_task(tick, nullptr);
  cpu.start(TimePoint::zero());

  sim.run_until(TimePoint::zero() + millis(30));
  EXPECT_EQ(frag_b.reassembly_timeouts(), 1u);
  EXPECT_TRUE(detector.peer_declared_dead());
  // The getter mirrors its counter; the bare host's frame is a no-upper
  // drop, not a receive.
  const auto& counters = hub.registry().counters();
  const auto received = counters.find("xkernel.simeth.frames_received");
  EXPECT_NE(received, counters.end());
  if (received != counters.end()) {
    EXPECT_EQ(received->second.value(), a.eth().frames_received() + b.eth().frames_received() +
                                            bare.frames_received());
  }
  EXPECT_EQ(bare.frames_received(), 0u);
  return exports_of(hub);
}

TEST(TelemetrySitePins, ScenarioReachesEverySite) {
  const Exports e = run_scenario();
  for (const char* needle :
       {"\"name\":\"frag-push\",\"detail\":\"3 fragment(s), 700B\"",
        "\"name\":\"frag-demux\",\"detail\":\"reassembled 3 fragments\"",
        "\"name\":\"job-finish\",\"detail\":\"slow #0 MISSED\"",
        "\"name\":\"preempt\",\"detail\":\"fast preempts task 1\"",
        "\"name\":\"slow #0\"",
        "\"name\":\"net-drop\",\"detail\":\"node1->node2 mtu\"",
        "\"name\":\"net-drop\",\"detail\":\"node2 down\"",
        "\"name\":\"net-corrupt\",\"detail\":\"node1->node2 byte ",
        "\"name\":\"udp-drop\",\"detail\":\"checksum port 9\"",
        "\"name\":\"violation:pin-oracle\",\"detail\":\"free \\\"text\\\"\""}) {
    EXPECT_NE(e.jsonl.find(needle), std::string::npos) << needle << "\n" << e.jsonl;
  }
}

TEST(TelemetrySitePins, JsonlIsByteIdentical) {
  const Exports e = run_scenario();
  EXPECT_EQ(fnv1a(e.jsonl), 0x1573d04853e9a29dULL) << e.jsonl;
}

TEST(TelemetrySitePins, ChromeTraceIsByteIdentical) {
  const Exports e = run_scenario();
  EXPECT_EQ(fnv1a(e.chrome), 0x5f5569036d917ed3ULL) << e.chrome;
}

TEST(TelemetrySitePins, RegistryIsByteIdentical) {
  const Exports e = run_scenario();
  EXPECT_EQ(fnv1a(e.registry), 0xb889a0c442d54d62ULL) << e.registry;
}

TEST(TelemetrySitePins, DropScenarioReachesEverySite) {
  const Exports e = run_drop_scenario();
  for (const char* needle :
       {"\"name\":\"net-drop\",\"detail\":\"node1->node2 loss\"",
        "\"name\":\"net-drop\",\"detail\":\"node1->node2 burst\"",
        "\"name\":\"ip-drop\",\"detail\":\"runt\"",
        "\"name\":\"ip-drop\",\"detail\":\"bad header\"",
        "\"name\":\"ip-drop\",\"detail\":\"unknown proto 99\"",
        "\"name\":\"eth-drop\",\"detail\":\"no upper protocol\"",
        "\"name\":\"udp-drop\",\"detail\":\"no listener port 11\"",
        "\"name\":\"frag-timeout\",\"detail\":\"1/2 fragments\"",
        "\"name\":\"ping-miss\",\"detail\":\"seq 1 miss 1/2\"",
        "\"name\":\"peer-dead\",\"detail\":\"after 2 misses\""}) {
    EXPECT_NE(e.jsonl.find(needle), std::string::npos) << needle << "\n" << e.jsonl;
  }
  for (const char* counter :
       {"\"net.link.duplicated\"", "\"net.link.reordered\"", "\"net.link.drops_loss\"",
        "\"net.link.drops_burst\"", "\"core.heartbeat.stale_acks\""}) {
    EXPECT_NE(e.jsonl.find(counter), std::string::npos) << counter << "\n" << e.jsonl;
  }
}

TEST(TelemetrySitePins, DropScenarioJsonlIsByteIdentical) {
  const Exports e = run_drop_scenario();
  EXPECT_EQ(fnv1a(e.jsonl), 0x58155f75be788227ULL) << e.jsonl;
}

TEST(TelemetrySitePins, DropScenarioChromeTraceIsByteIdentical) {
  const Exports e = run_drop_scenario();
  EXPECT_EQ(fnv1a(e.chrome), 0x0dd8685160beebf4ULL) << e.chrome;
}

TEST(TelemetrySitePins, DropScenarioRegistryIsByteIdentical) {
  const Exports e = run_drop_scenario();
  EXPECT_EQ(fnv1a(e.registry), 0x1fcfb43dd409cb85ULL) << e.registry;
}

}  // namespace
}  // namespace rtpb
