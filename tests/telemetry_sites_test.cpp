// Pins the exported text of the Hub recording sites that the chaos
// goldens never reach: a multi-fragment FragLite push, a missed deadline,
// a preemption, MTU / node-down / corruption drops on a link, and a
// UdpLite checksum drop.  One small deterministic scenario drives all of
// them with the Hub on; the JSONL stream and the Chrome trace it exports
// are compared against checksums recorded inline, so a change to how an
// event is stored or rendered must leave every byte of both unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "net/network.hpp"
#include "sched/cpu.hpp"
#include "sim/simulator.hpp"
#include "telemetry/export.hpp"
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

struct Exports {
  std::string jsonl;
  std::string chrome;
};

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
  // A free-text detail, blamed on the span.
  hub.mark_violation(hub.span_for(1, 1), "pin-oracle", "free \"text\"");

  Exports out;
  std::ostringstream jsonl;
  telemetry::write_jsonl(hub, jsonl);
  out.jsonl = jsonl.str();
  std::ostringstream chrome;
  telemetry::write_chrome_trace(hub, chrome);
  out.chrome = chrome.str();
  return out;
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

}  // namespace
}  // namespace rtpb
