// A registry counter that mirrors a component's own total must agree with
// it.  One telemetry-on chaos seed (two backups, overload, crash-restart)
// runs to the end; each counter below must equal the getter it mirrors,
// summed over every replica or every directed link.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "chaos/experiment.hpp"
#include "core/rtpb.hpp"

namespace rtpb {
namespace {

TEST(TelemetryTotals, RegistryCountersEqualComponentTotals) {
  chaos::ChaosOptions opts;
  opts.backups = 2;
  opts.enable_overload = true;
  opts.enable_crash_restart = true;
  opts.telemetry = true;
  chaos::Experiment experiment(7, opts);
  core::RtpbService& service = experiment.service();
  service.run_for(opts.duration);
  experiment.finish();

  ASSERT_TRUE(service.params().config.enable_fragmentation);
  const telemetry::Registry& registry = service.simulator().telemetry().registry();
  const auto counter = [&registry](const std::string& name) -> std::uint64_t {
    const auto it = registry.counters().find(name);
    return it == registry.counters().end() ? 0 : it->second.value();
  };

  std::vector<const core::ReplicaServer*> replicas;
  service.for_each_replica([&](const core::ReplicaServer& r) { replicas.push_back(&r); });
  using ReplicaTotal = std::function<std::uint64_t(const core::ReplicaServer&)>;
  const auto over_replicas = [&](const ReplicaTotal& f) {
    std::uint64_t total = 0;
    for (const core::ReplicaServer* r : replicas) total += f(*r);
    return total;
  };
  net::NodeId last_node = 0;
  for (const core::ReplicaServer* r : replicas) last_node = std::max(last_node, r->node());
  const auto over_links = [&](const std::function<std::uint64_t(const net::LinkStats&)>& f) {
    std::uint64_t total = 0;
    for (net::NodeId a = 1; a <= last_node; ++a) {
      for (net::NodeId b = 1; b <= last_node; ++b) {
        if (service.network().link_params(a, b)) total += f(service.network().stats(a, b));
      }
    }
    return total;
  };

  const struct {
    const char* counter;
    std::uint64_t total;
  } pairs[] = {
      {"net.link.sends", over_links([](const net::LinkStats& s) { return s.sent; })},
      {"net.link.delivers", over_links([](const net::LinkStats& s) { return s.delivered; })},
      {"net.link.drops", over_links([](const net::LinkStats& s) { return s.dropped; })},
      {"net.link.drops_burst",
       over_links([](const net::LinkStats& s) { return s.burst_dropped; })},
      {"net.link.reordered", over_links([](const net::LinkStats& s) { return s.reordered; })},
      {"net.link.duplicated", over_links([](const net::LinkStats& s) { return s.duplicated; })},
      {"net.link.corrupted", over_links([](const net::LinkStats& s) { return s.corrupted; })},
      {"core.backup.applies",
       over_replicas([](const core::ReplicaServer& r) { return r.updates_applied(); })},
      {"core.backup.nacks",
       over_replicas([](const core::ReplicaServer& r) { return r.retransmit_requests_sent(); })},
      {"core.primary.retransmissions",
       over_replicas([](const core::ReplicaServer& r) { return r.retransmissions_served(); })},
      {"core.degrade.downgrades",
       over_replicas([](const core::ReplicaServer& r) { return r.qos_downgrades_sent(); })},
      {"core.store.recoveries",
       over_replicas([](const core::ReplicaServer& r) { return r.recoveries(); })},
      {"core.epoch.rejected",
       over_replicas([](const core::ReplicaServer& r) { return r.epoch_rejections(); })},
      {"sched.completions",
       over_replicas([](const core::ReplicaServer& r) { return r.cpu().jobs_completed(); })},
      {"sched.deadline_misses",
       over_replicas([](const core::ReplicaServer& r) { return r.cpu().deadline_misses(); })},
      {"xkernel.simeth.frames_sent",
       over_replicas([](const core::ReplicaServer& r) { return r.stack().eth().frames_sent(); })},
      {"xkernel.simeth.frames_received",
       over_replicas(
           [](const core::ReplicaServer& r) { return r.stack().eth().frames_received(); })},
      {"xkernel.udplite.checksum_failures",
       over_replicas(
           [](const core::ReplicaServer& r) { return r.stack().udp().checksum_failures(); })},
      {"xkernel.fraglite.messages_sent",
       over_replicas([](const core::ReplicaServer& r) { return r.frag()->messages_sent(); })},
      {"xkernel.fraglite.messages_reassembled",
       over_replicas(
           [](const core::ReplicaServer& r) { return r.frag()->messages_reassembled(); })},
  };
  for (const auto& p : pairs) EXPECT_EQ(counter(p.counter), p.total) << p.counter;
  // The run is not vacuous: it sent, applied and scheduled.
  EXPECT_GT(counter("net.link.sends"), 0u);
  EXPECT_GT(counter("core.backup.applies"), 0u);
  EXPECT_GT(counter("sched.completions"), 0u);

  const auto delays = registry.histograms().find("net.link.delay_ms");
  ASSERT_NE(delays, registry.histograms().end());
  EXPECT_EQ(delays->second.samples().count(),
            over_links([](const net::LinkStats& s) { return s.delays_ms.count(); }));
}

}  // namespace
}  // namespace rtpb
