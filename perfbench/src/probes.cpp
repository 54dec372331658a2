#include "probes.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>

#include "common/alloc_hook.hpp"
#include "core/wire.hpp"
#include "perfbench.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "store/device.hpp"
#include "store/durable_store.hpp"
#include "util/rng.hpp"
#include "xkernel/graph.hpp"

namespace perfbench {

using namespace rtpb;
using bench::alloc_hook::Scope;

namespace {

/// Every probe repeats its timed loop this many times and keeps the median.
constexpr int kRounds = 3;
/// Host time each round of a probe aims for.
constexpr double kRoundSeconds = 0.04;

volatile std::size_t g_sink = 0;  // keeps probe results observable

/// Run `batch()` (which performs `per_batch` operations) until one round's
/// time is spent; return the median per-operation cost over kRounds rounds.
/// `events` reads a monotone simulator event counter (or nullptr).
Cost measure(const std::function<void()>& batch, double per_batch,
             const std::function<std::uint64_t()>& events = nullptr) {
  batch();  // warm-up: lazy set-up and caches
  std::vector<double> ns;
  std::vector<double> allocs;
  std::vector<double> evs;
  for (int r = 0; r < kRounds; ++r) {
    const std::uint64_t e0 = events ? events() : 0;
    const Scope scope;
    const Clock::time_point t0 = Clock::now();
    double ops = 0.0;
    do {
      batch();
      ops += per_batch;
    } while (seconds_since(t0) < kRoundSeconds);
    const double elapsed = seconds_since(t0);
    ns.push_back(elapsed * 1e9 / ops);
    allocs.push_back(static_cast<double>(scope.allocations()) / ops);
    evs.push_back(events ? static_cast<double>(events() - e0) / ops : 0.0);
  }
  return Cost{median(ns), median(allocs), median(evs)};
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Cost probe_sim_kernel(std::size_t depth) {
  depth = std::max<std::size_t>(depth, 1);
  sim::Simulator sim(1);
  Rng rng(7);
  // Each event schedules its successor, so the queue depth stays `depth`.
  struct Hop {
    sim::Simulator* sim;
    Rng* rng;
    void operator()() const {
      sim->schedule_after(Duration{rng->uniform(1'000, 2'000'000)}, *this);
    }
  };
  for (std::size_t i = 0; i < depth; ++i) {
    sim.schedule_at(TimePoint::zero() + Duration{rng.uniform(0, 2'000'000)}, Hop{&sim, &rng});
  }
  constexpr int kBatch = 1000;
  return measure(
      [&] {
        for (int i = 0; i < kBatch; ++i) sim.step();
      },
      kBatch);
}

Cost probe_sched(sched::Policy policy, const std::vector<sched::TaskSpec>& tasks) {
  if (tasks.empty()) return {};
  sim::Simulator sim(1);
  sched::Cpu cpu(sim, policy, "probe-cpu");
  for (const sched::TaskSpec& spec : tasks) cpu.add_task(spec, nullptr);
  cpu.start();
  TimePoint horizon = sim.now();
  const auto slice = [&] {
    horizon += millis(50);
    sim.run_until(horizon);
  };
  // Warm-up past the synchronous first release of every task.
  for (int i = 0; i < 20; ++i) slice();
  // Jobs complete at the CPU's pace, not per call: count them per round.
  std::vector<double> ns;
  std::vector<double> allocs;
  std::vector<double> evs;
  for (int r = 0; r < kRounds; ++r) {
    const std::uint64_t jobs0 = cpu.jobs_completed();
    const std::uint64_t events0 = sim.fired_events();
    const Scope scope;
    const Clock::time_point t0 = Clock::now();
    do {
      slice();
    } while (seconds_since(t0) < kRoundSeconds);
    const double elapsed = seconds_since(t0);
    const auto jobs = static_cast<double>(cpu.jobs_completed() - jobs0);
    if (jobs == 0) return {};
    ns.push_back(elapsed * 1e9 / jobs);
    allocs.push_back(static_cast<double>(scope.allocations()) / jobs);
    evs.push_back(static_cast<double>(sim.fired_events() - events0) / jobs);
  }
  return Cost{median(ns), median(allocs), median(evs)};
}

WireCost probe_wire(std::size_t entries, std::size_t value_bytes) {
  entries = std::max<std::size_t>(entries, 1);
  core::wire::UpdateBatch batch;
  batch.epoch = 3;
  for (std::size_t i = 0; i < entries; ++i) {
    batch.entries.push_back(core::wire::UpdateBatchEntry{
        static_cast<core::ObjectId>(i + 1), 1000 + i,
        TimePoint::zero() + micros(static_cast<std::int64_t>(i)),
        Bytes(value_bytes, static_cast<std::uint8_t>(i))});
  }
  const Bytes encoded = core::wire::encode(batch);
  constexpr int kBatch = 200;
  const Cost enc = measure(
      [&] {
        for (int i = 0; i < kBatch; ++i) g_sink = g_sink + core::wire::encode(batch).size();
      },
      kBatch);
  const Cost dec = measure(
      [&] {
        for (int i = 0; i < kBatch; ++i) {
          g_sink = g_sink + (core::wire::decode(encoded).has_value() ? 1 : 0);
        }
      },
      kBatch);
  return WireCost{enc.ns, dec.ns, enc.allocs + dec.allocs};
}

Cost probe_xkernel(std::size_t peers, std::size_t payload_bytes) {
  peers = std::max<std::size_t>(peers, 1);
  constexpr net::Port kPort = 7000;
  sim::Simulator sim(1);
  net::Network network(sim);
  xkernel::HostStack source(network);
  std::vector<std::unique_ptr<xkernel::HostStack>> sinks;
  std::uint64_t delivered = 0;
  for (std::size_t p = 0; p < peers; ++p) {
    sinks.push_back(std::make_unique<xkernel::HostStack>(network));
    network.connect(source.node(), sinks.back()->node(), net::LinkParams{});
    sinks.back()->udp().bind(kPort, [&delivered](xkernel::Message&, const xkernel::MsgAttrs&) {
      ++delivered;
    });
  }
  // One encoded body, shared by every peer's copy — the primary's fan-out.
  const xkernel::Message frame{Bytes(payload_bytes, 0x5A)};
  constexpr int kFrames = 20;
  const Cost cost = measure(
      [&] {
        for (int i = 0; i < kFrames; ++i) {
          for (const auto& sink : sinks) {
            source.send_message(kPort, net::Endpoint{sink->node(), kPort}, frame);
          }
          sim.run();
        }
      },
      static_cast<double>(kFrames) * static_cast<double>(peers),
      [&sim] { return sim.fired_events(); });
  g_sink = g_sink + delivered;
  return cost;
}

Cost probe_net(std::size_t payload_bytes) {
  sim::Simulator sim(1);
  net::Network network(sim);
  std::uint64_t delivered = 0;
  const net::NodeId a = network.add_node([](const net::Packet&) {});
  const net::NodeId b = network.add_node([&delivered](const net::Packet&) { ++delivered; });
  network.connect(a, b, net::LinkParams{});
  const Bytes payload(payload_bytes, 0x5A);
  constexpr int kFrames = 50;
  const Cost cost = measure(
      [&] {
        for (int i = 0; i < kFrames; ++i) (void)network.send(a, b, payload);
        sim.run();
      },
      kFrames, [&sim] { return sim.fired_events(); });
  g_sink = g_sink + delivered;
  return cost;
}

StoreCost probe_store(std::size_t objects, std::size_t value_bytes) {
  objects = std::max<std::size_t>(objects, 1);
  store::SimStorageDevice wal;
  store::SimStorageDevice checkpoint;
  store::DurableStore durable(wal, checkpoint, std::numeric_limits<std::size_t>::max());
  std::vector<core::ObjectState> states(objects);
  for (std::size_t i = 0; i < objects; ++i) {
    core::ObjectState& s = states[i];
    s.spec.id = static_cast<core::ObjectId>(i + 1);
    s.spec.size_bytes = static_cast<std::uint32_t>(value_bytes);
    s.spec.client_period = millis(10);
    s.spec.client_exec = micros(20);
    s.spec.update_exec = micros(20);
    s.spec.delta_primary = millis(30);
    s.spec.delta_backup = millis(130);
    s.value = Bytes(value_bytes, 0x11);
    s.version = 1;
    (void)durable.log_insert(s.spec);
  }
  const Bytes value(value_bytes, 0x5A);
  std::uint64_t version = 2;
  // A table's worth of writes per batch; a checkpoint after each round
  // keeps the WAL from growing across rounds.
  const Cost write = measure(
      [&] {
        for (std::size_t i = 0; i < objects; ++i) {
          const TimePoint ts = TimePoint::zero() + micros(static_cast<std::int64_t>(version));
          (void)durable.log_write(states[i].spec.id, version++, ts, ts, value);
        }
        if (wal.size() > (1u << 22)) (void)durable.checkpoint(states, 1, 1);
      },
      static_cast<double>(objects));

  std::vector<double> checkpoint_us;
  std::vector<double> recover_us;
  for (int r = 0; r < kRounds; ++r) {
    Clock::time_point t0 = Clock::now();
    (void)durable.checkpoint(states, 1, 1);
    checkpoint_us.push_back(seconds_since(t0) * 1e6);
    for (std::size_t i = 0; i < objects; ++i) {
      const TimePoint ts = TimePoint::zero() + micros(static_cast<std::int64_t>(version));
      (void)durable.log_write(states[i].spec.id, version++, ts, ts, value);
    }
    t0 = Clock::now();
    const store::RecoveryResult recovered = durable.recover();
    recover_us.push_back(seconds_since(t0) * 1e6);
    g_sink = g_sink + recovered.states.size();
  }
  return StoreCost{write.ns, median(checkpoint_us), median(recover_us)};
}

double probe_explore_replay_us(const explore::ExploreConfig& cfg) {
  std::vector<double> us;
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point t0 = Clock::now();
    const explore::TrajectoryResult result = explore::run_trajectory(cfg, {});
    us.push_back(seconds_since(t0) * 1e6);
    g_sink = g_sink + result.choices.size();
  }
  return median(us);
}

}  // namespace perfbench
