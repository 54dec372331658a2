// wirepath_bench — the allocation-lean wire-path baseline recorder.
//
// Measures the primary→backup hot path four ways and writes the flat
// BENCH_wirepath.json that tools/bench_report gates future PRs against:
//
//   1. encode allocations per frame into a recycled body (asserted 0 once
//      the body pool is warm),
//   2. encode/decode wall time per update, single kUpdate vs kUpdateBatch,
//   3. fan-out allocations per update for N∈{1,4,8} peers — the legacy
//      deep-copy-per-peer scheme vs the shared-payload Message, and
//   4. end-to-end RtpbService throughput (updates/sec of wall time) and
//      allocations/update at N∈{1,4,8} backups, batched and unbatched
//      (all six gated at 0.05 in this binary),
//   5. what observability costs: the post-mortem ring alone (what
//      --flight-recorder turns on) and the trace digest on vs off on the
//      wire path, and telemetry on vs off over one chaos seed
//      (allocations per Hub event, gated at 0.25; wall-time ratios are too
//      noisy to gate), and
//   6. allocations per fired event in the event kernel, per frame
//      through the default x-kernel stack and per periodic job release on
//      a CPU whose backlogs outgrow their inline room.  All three are 0 in
//      steady state; with a 0 baseline, bench_report --stable-only fails
//      any allocation that comes back, and the release count is gated at
//      0 in this binary, and
//   7. allocations per explored trajectory over explore_main's default
//      sweep (seed-pure, gated in this binary), and
//   8. allocations per WAL append: DurableStore frames each record in
//      place in one reused buffer, so a steady append allocates nothing
//      (gated at 0 in this binary).
//
// This binary links bench/common/alloc_hook.cpp, which REPLACES the global
// operator new/delete — that is why it is not part of the *_main.cpp glob.
//
// Usage: wirepath_bench [output.json]   (default BENCH_wirepath.json)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "chaos/harness.hpp"
#include "common/alloc_hook.hpp"
#include "common/harness.hpp"
#include "core/wire.hpp"
#include "explore/explorer.hpp"
#include "net/network.hpp"
#include "sched/cpu.hpp"
#include "sim/simulator.hpp"
#include "store/device.hpp"
#include "store/durable_store.hpp"
#include "xkernel/graph.hpp"
#include "xkernel/message.hpp"

namespace {

using namespace rtpb;
using bench::alloc_hook::Scope;

volatile std::size_t g_sink = 0;  // defeats dead-code elimination

double now_ns() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

core::wire::Update sample_update(std::size_t value_bytes) {
  core::wire::Update u;
  u.object = 7;
  u.version = 123456;
  u.timestamp = TimePoint{987654321};
  u.value = Bytes(value_bytes, 0x5A);
  u.epoch = 3;
  return u;
}

core::wire::UpdateBatch sample_batch(std::size_t entries, std::size_t value_bytes) {
  core::wire::UpdateBatch b;
  for (std::size_t i = 0; i < entries; ++i) {
    b.entries.push_back(core::wire::UpdateBatchEntry{
        static_cast<core::ObjectId>(i + 1), 100 + i,
        TimePoint{static_cast<std::int64_t>(i) * 1000},
        Bytes(value_bytes, static_cast<std::uint8_t>(i))});
  }
  b.epoch = 3;
  return b;
}

// ---- 1. allocations per frame encode -------------------------------------

/// Allocations per pooled encode (the send paths' encode), each frame
/// dropped before the next: after the warm-up the pool holds a body of the
/// frame's size that no frame shares, so every encode reuses it.
template <typename Msg>
double encode_allocs(const Msg& msg, const char* what) {
  constexpr int kIters = 1000;
  BodyPool pool;
  for (int i = 0; i < 8; ++i) g_sink = g_sink + core::wire::encode(pool, msg).size();
  Scope scope;
  for (int i = 0; i < kIters; ++i) g_sink = g_sink + core::wire::encode(pool, msg).size();
  const double per = static_cast<double>(scope.allocations()) / kIters;
  std::printf("  %-28s %.2f allocs/frame\n", what, per);
  if (per > 0) {
    std::fprintf(stderr,
                 "FAIL: %s encode took %.2f allocations/frame (expected 0: a warm pool "
                 "hands out a free body with room for the whole frame)\n",
                 what, per);
    std::exit(1);
  }
  return per;
}

// ---- 2. encode/decode wall time ------------------------------------------

template <typename Msg>
double encode_decode_ns(const Msg& msg, std::size_t updates_per_frame) {
  constexpr int kIters = 20000;
  for (int i = 0; i < 100; ++i) {  // warm-up
    const Bytes e = core::wire::encode(msg);
    g_sink = g_sink + (core::wire::decode(e).has_value() ? e.size() : 0);
  }
  const double t0 = now_ns();
  for (int i = 0; i < kIters; ++i) {
    const Bytes e = core::wire::encode(msg);
    g_sink = g_sink + (core::wire::decode(e).has_value() ? e.size() : 0);
  }
  return (now_ns() - t0) / kIters / static_cast<double>(updates_per_frame);
}

// ---- 3. fan-out allocations: legacy deep copy vs shared message ----------

// What the pre-PR4 primary did per peer: copy the encoded payload into a
// fresh Message, then push the per-peer protocol header.
double legacy_fanout_allocs(const Bytes& encoded, std::size_t peers) {
  constexpr int kIters = 2000;
  const Bytes header(40, 0x11);  // stand-in for udplite+iplite+simeth headers
  Scope scope;
  for (int i = 0; i < kIters; ++i) {
    const Bytes once = encoded;  // the single encode-output copy
    for (std::size_t p = 0; p < peers; ++p) {
      Bytes copy = once;                       // deep copy per peer
      xkernel::Message m{std::move(copy)};
      m.push(header);
      g_sink = g_sink + m.size();
    }
  }
  return static_cast<double>(scope.allocations()) / kIters;
}

// The shared path: one ref-counted body; each peer's Message shares it and
// only materialises its own header region.
double shared_fanout_allocs(const Bytes& encoded, std::size_t peers) {
  constexpr int kIters = 2000;
  const Bytes header(40, 0x11);
  Scope scope;
  for (int i = 0; i < kIters; ++i) {
    Bytes once = encoded;  // the single encode-output copy
    const xkernel::Message frame{std::move(once)};
    for (std::size_t p = 0; p < peers; ++p) {
      xkernel::Message m = frame;              // shares the body
      m.push(header);
      g_sink = g_sink + m.size();
    }
  }
  return static_cast<double>(scope.allocations()) / kIters;
}

// ---- 4. end-to-end service throughput ------------------------------------

struct E2eResult {
  double updates_per_sec = 0;   // logical updates propagated per wall second
  double ns_per_update = 0;
  double allocs_per_update = 0;
  double frames_per_update = 0; // < 1 when batching coalesces
};

E2eResult run_e2e(std::size_t backups, bool batched, bool postmortem_ring = false,
                  bool trace = false) {
  core::ServiceParams params;
  params.seed = 7;
  params.backup_count = backups;
  params.link.propagation = millis(1);
  params.link.jitter = micros(200);
  params.config.batch_updates = batched;

  core::RtpbService service(params);
  // The ring alone is allocated whole by enable_postmortem(), before the
  // alloc Scope opens: recording on the hot path must then be alloc-free.
  if (postmortem_ring) service.simulator().telemetry().enable_postmortem();
  if (trace) service.simulator().telemetry().digest().enable();
  service.start();
  for (core::ObjectId id = 1; id <= 5; ++id) {
    core::ObjectSpec object;
    object.id = id;
    object.name = "obj" + std::to_string(id);
    object.size_bytes = 64;
    object.client_period = millis(10);
    object.client_exec = micros(200);
    object.update_exec = millis(1);
    object.delta_primary = millis(20);
    object.delta_backup = millis(100);
    (void)service.register_object(object);
  }
  service.warm_up(seconds(1));

  const std::uint64_t sent0 = service.primary().updates_sent();
  const std::uint64_t frames0 = service.primary().update_frames_sent();
  Scope scope;
  const double t0 = now_ns();
  service.run_for(seconds(4));
  const double wall_ns = now_ns() - t0;
  const double allocs = static_cast<double>(scope.allocations());
  service.finish();

  const auto sent = static_cast<double>(service.primary().updates_sent() - sent0);
  const auto frames = static_cast<double>(service.primary().update_frames_sent() - frames0);
  E2eResult r;
  if (sent > 0) {
    r.updates_per_sec = sent / (wall_ns * 1e-9);
    r.ns_per_update = wall_ns / sent;
    r.allocs_per_update = allocs / sent;
    r.frames_per_update = frames / sent;
  }
  return r;
}

/// Allocations made by one run of chaos seed 7 (default options) and the
/// Hub events it recorded.
std::pair<double, std::uint64_t> chaos_allocs(bool telemetry) {
  chaos::ChaosOptions opts;
  opts.telemetry = telemetry;
  Scope scope;
  const chaos::SeedReport report = chaos::run_seed(7, opts);
  return {static_cast<double>(scope.allocations()), report.telemetry_events};
}

// ---- 6. event kernel and x-kernel stack allocations ----------------------

/// Allocations per fired event over a warmed-up mixed stream: 1024 chains
/// of events that each schedule their successor, and every fourth hop
/// cancels and re-arms a watchdog (the backup's per-object watchdog
/// pattern), so cancelled entries and freed slots are always in play.
double kernel_allocs_per_event() {
  struct Stream {
    sim::Simulator sim{1};
    Rng rng{7};
    sim::EventHandle watchdog;
    std::uint64_t hops = 0;
    void hop() {
      if (++hops % 4 == 0) {
        watchdog.cancel();
        watchdog = sim.schedule_after(millis(5), [] {});
      }
      sim.schedule_after(Duration{rng.uniform(1'000, 2'000'000)}, [this] { hop(); });
    }
  };
  Stream s;
  for (int i = 0; i < 1024; ++i) {
    s.sim.schedule_at(TimePoint::zero() + Duration{s.rng.uniform(0, 2'000'000)},
                      [&s] { s.hop(); });
  }
  // Warm-up: the slot slab, free list and queue reach their working size.
  for (int i = 0; i < 50'000; ++i) s.sim.step();
  const std::uint64_t fired0 = s.sim.fired_events();
  Scope scope;
  for (int i = 0; i < 200'000; ++i) s.sim.step();
  return static_cast<double>(scope.allocations()) /
         static_cast<double>(s.sim.fired_events() - fired0);
}

/// Allocations per frame through SIMETH/IPLITE/UDPLITE, pushed and
/// demuxed, for one 256-byte message fanned out to 4 peers.  The links
/// keep every delay sample; the warm-up (5000 samples per link, capacity
/// 8192 with a doubling vector) leaves room for the measured window's
/// 2000, so the window sees the stack's allocations only.
double xkernel_allocs_per_frame() {
  constexpr net::Port kPort = 7000;
  constexpr std::size_t kPeers = 4;
  sim::Simulator sim(1);
  net::Network network(sim);
  xkernel::HostStack source(network);
  std::vector<std::unique_ptr<xkernel::HostStack>> sinks;
  for (std::size_t p = 0; p < kPeers; ++p) {
    sinks.push_back(std::make_unique<xkernel::HostStack>(network));
    network.connect(source.node(), sinks.back()->node(), net::LinkParams{});
    sinks.back()->udp().bind(kPort, [](xkernel::Message& m, const xkernel::MsgAttrs&) {
      g_sink = g_sink + m.size();
    });
  }
  const xkernel::Message frame{Bytes(256, 0x5A)};
  const auto send_rounds = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      for (const auto& sink : sinks) {
        source.send_message(kPort, net::Endpoint{sink->node(), kPort}, frame);
      }
      sim.run();
    }
  };
  send_rounds(5'000);
  constexpr int kRounds = 2'000;
  Scope scope;
  send_rounds(kRounds);
  return static_cast<double>(scope.allocations()) / (kRounds * static_cast<double>(kPeers));
}

/// Allocations per periodic job release on a FIFO CPU under bursty
/// overload: every 100 ms a 64 ms job holds the CPU while a 1 ms task
/// releases behind it, so that task's backlog reaches about 64 jobs, far
/// past its inline room, then drains.  The first burst grows the backlog's
/// buffer; every later one must reuse it.
double cpu_allocs_per_release() {
  sim::Simulator sim(1);
  sched::Cpu cpu(sim, sched::Policy::kFifo);
  sched::TaskSpec hog;
  hog.name = "hog";
  hog.period = millis(100);
  hog.wcet = millis(64);
  sched::TaskSpec fast;
  fast.name = "fast";
  fast.period = millis(1);
  fast.wcet = micros(200);
  (void)cpu.add_task(hog, nullptr);
  (void)cpu.add_task(fast, nullptr);
  cpu.start();
  sim.run_until(TimePoint::zero() + seconds(1));
  const std::uint64_t jobs0 = cpu.jobs_completed();
  Scope scope;
  sim.run_until(TimePoint::zero() + seconds(5));
  return static_cast<double>(scope.allocations()) /
         static_cast<double>(cpu.jobs_completed() - jobs0);
}

// ---- 7. explorer allocations ----------------------------------------------

/// Allocations per trajectory of an explorer sweep.  A sweep draws no host
/// randomness and runs on one runner here, so the count is exact on every
/// host.
double explore_allocs_per_trajectory(const explore::ExploreConfig& cfg) {
  Scope scope;
  const std::uint64_t trajectories = explore::explore(cfg, nullptr, 1).trajectories;
  const auto allocs = static_cast<double>(scope.allocations());
  return allocs / static_cast<double>(trajectories);
}

/// explore_main's default sweep: the 2-node pair, crash / crash / recruit
/// candidates and one droppable frame.  With `wide`, the 2-backup,
/// 2-object sweep of the repository benchmark (explore_exhaustive), the
/// one whose trajectories meet event-order ties.
explore::ExploreConfig explore_sweep(bool wide) {
  explore::ExploreConfig cfg;
  if (wide) {
    cfg.backups = 2;
    cfg.objects = 2;
    cfg.bounds.max_choice_points = 1000;
  }
  cfg.bounds.drop_from = TimePoint::zero() + millis(101);
  cfg.bounds.drop_until = TimePoint::zero() + millis(401);
  cfg.crash_primary_at.push_back(millis(251));
  cfg.crash_backup_at.push_back(millis(451));
  cfg.add_standby_at.push_back(millis(601));
  return cfg;
}

// ---- 8. WAL append allocations --------------------------------------------

/// Allocations per DurableStore::log_write of a 256-byte value.  The
/// warm-up grows the frame buffer and the device; truncate() then empties
/// the device but keeps its capacity, so the measured appends see the
/// store's own allocations only, not device growth.
double wal_allocs_per_append() {
  constexpr int kAppends = 1'000;
  store::SimStorageDevice wal;
  store::SimStorageDevice checkpoint;
  store::DurableStore durable(wal, checkpoint);
  const Bytes value(256, 0x5A);
  std::uint64_t version = 1;
  const auto append = [&](int n) {
    for (int i = 0; i < n; ++i, ++version) {
      const TimePoint ts{static_cast<std::int64_t>(version)};
      if (!durable.log_write(7, version, ts, ts, value)) std::exit(1);
    }
  };
  append(kAppends);
  wal.truncate();
  Scope scope;
  append(kAppends);
  return static_cast<double>(scope.allocations()) / kAppends;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_wirepath.json";
  bench::JsonMetrics metrics("wirepath");

  bench::banner("Wire-path baseline: allocations + latency on the update hot path",
                "no allocation per frame encode once the body pool is warm; shared "
                "fan-out >= 2x leaner than deep copy at N=4; no allocation per "
                "replicated update in steady state");

  std::printf("\n[1] allocations per frame encode into a recycled body\n");
  const auto update = sample_update(64);
  const auto batch = sample_batch(8, 64);
  metrics.add("encode_update_allocs", encode_allocs(update, "kUpdate(64B)"));
  metrics.add("encode_batch8_allocs", encode_allocs(batch, "kUpdateBatch(8x64B)"));

  std::printf("\n[2] encode+decode wall time per update\n");
  const double single_ns = encode_decode_ns(update, 1);
  const double batch_ns = encode_decode_ns(batch, batch.entries.size());
  std::printf("  single kUpdate               %.0f ns/update\n", single_ns);
  std::printf("  kUpdateBatch (8 entries)     %.0f ns/update\n", batch_ns);
  metrics.add("codec_single_ns_per_update", single_ns);
  metrics.add("codec_batch8_ns_per_update", batch_ns);

  std::printf("\n[3] fan-out allocations per update, legacy deep-copy vs shared body\n");
  const Bytes encoded = core::wire::encode(update);
  for (std::size_t n : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    const double legacy = legacy_fanout_allocs(encoded, n);
    const double shared = shared_fanout_allocs(encoded, n);
    std::printf("  N=%zu  legacy %.2f  shared %.2f  (%.2fx)\n", n, legacy, shared,
                shared > 0 ? legacy / shared : 0.0);
    char key[64];
    std::snprintf(key, sizeof(key), "fanout_legacy_allocs_n%zu", n);
    metrics.add(key, legacy);
    std::snprintf(key, sizeof(key), "fanout_shared_allocs_n%zu", n);
    metrics.add(key, shared);
    if (n == 4 && !(legacy >= 2.0 * shared)) {
      std::fprintf(stderr,
                   "FAIL: shared fan-out at N=4 is not >=2x leaner than deep copy "
                   "(legacy %.2f vs shared %.2f allocs/update)\n",
                   legacy, shared);
      return 1;
    }
    if (n == 4) metrics.add("fanout_alloc_ratio_n4", legacy / shared);
  }

  std::printf("\n[4] end-to-end RtpbService, 5 objects @ 10 ms, 4 virtual seconds\n");
  std::printf("  %-22s %12s %12s %14s %10s\n", "config", "upd/sec", "ns/update",
              "allocs/update", "frames/upd");
  // The seed is fixed, so each count is exact.  A steady replicated update
  // allocates nothing: bodies are recycled, batches decode in place and
  // CPU backlogs keep their room, so what is left is the rare growth of a
  // retained sample buffer.  A frame body, a decoded vector or a value copy
  // per update adds at least 1.
  constexpr double kMaxAllocsPerUpdate = 0.05;
  bool allocs_over_gate = false;
  for (std::size_t n : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    for (const bool batched : {true, false}) {
      const E2eResult r = run_e2e(n, batched);
      std::printf("  N=%zu %-18s %12.0f %12.0f %14.1f %10.2f\n", n,
                  batched ? "batched" : "unbatched", r.updates_per_sec, r.ns_per_update,
                  r.allocs_per_update, r.frames_per_update);
      char key[64];
      const char* mode = batched ? "batched" : "unbatched";
      std::snprintf(key, sizeof(key), "e2e_%s_updates_per_sec_n%zu", mode, n);
      metrics.add(key, r.updates_per_sec);
      std::snprintf(key, sizeof(key), "e2e_%s_ns_per_update_n%zu", mode, n);
      metrics.add(key, r.ns_per_update);
      std::snprintf(key, sizeof(key), "e2e_%s_allocs_per_update_n%zu", mode, n);
      metrics.add(key, r.allocs_per_update);
      std::snprintf(key, sizeof(key), "e2e_%s_frames_per_update_n%zu", mode, n);
      metrics.add(key, r.frames_per_update);
      if (r.allocs_per_update > kMaxAllocsPerUpdate) {
        std::fprintf(stderr, "FAIL: the %s wire path cost %.3f allocs/update at N=%zu (gate %.2f)\n",
                     mode, r.allocs_per_update, n, kMaxAllocsPerUpdate);
        allocs_over_gate = true;
      }
    }
  }
  if (allocs_over_gate) return 1;

  std::printf("\n[5] post-mortem ring and trace on the wire path (observability must be free)\n");
  {
    // Same seed → identical virtual trajectory, so any allocation delta is
    // the ring's doing.  The ring alone is allocated whole when it is
    // enabled; recording an event must not allocate in steady state.
    const E2eResult off = run_e2e(4, true);
    const E2eResult on = run_e2e(4, true, /*postmortem_ring=*/true);
    std::printf("  recorder off  %14.2f allocs/update\n", off.allocs_per_update);
    std::printf("  recorder on   %14.2f allocs/update\n", on.allocs_per_update);
    metrics.add("e2e_recorder_off_allocs_per_update_n4", off.allocs_per_update);
    metrics.add("e2e_recorder_on_allocs_per_update_n4", on.allocs_per_update);
    if (on.allocs_per_update > off.allocs_per_update + 0.01) {
      std::fprintf(stderr,
                   "FAIL: enabling the post-mortem ring cost %.2f -> %.2f allocs/update "
                   "on the wire path (Hub::record must be allocation-free)\n",
                   off.allocs_per_update, on.allocs_per_update);
      return 1;
    }
    // The trace digest folds each flagged fact's fixed-width record in
    // place and stores nothing, so tracing the same seed must not allocate
    // either.
    const E2eResult traced = run_e2e(4, true, /*postmortem_ring=*/false, /*trace=*/true);
    std::printf("  trace on      %14.2f allocs/update\n", traced.allocs_per_update);
    metrics.add("e2e_trace_on_allocs_per_update_n4", traced.allocs_per_update);
    if (traced.allocs_per_update > off.allocs_per_update + 0.01) {
      std::fprintf(stderr,
                   "FAIL: enabling the trace cost %.2f -> %.2f allocs/update on the wire "
                   "path (a digest fold must be allocation-free)\n",
                   off.allocs_per_update, traced.allocs_per_update);
      return 1;
    }
    // The same seed with the telemetry Hub on, then off: the allocation
    // delta is what the registry, spans and event stream cost.  The count
    // is seed-pure, so it is gated exactly.  A Hub event is a fixed-size
    // record in a chunked ring, so what is left is mostly the span index
    // and histogram samples; a string built per event would add about 1.
    const auto [on_allocs, events] = chaos_allocs(true);
    const double off_allocs = chaos_allocs(false).first;
    const double per_event = (on_allocs - off_allocs) / static_cast<double>(events);
    std::printf("  telemetry     %14.2f allocs/Hub event (%llu events, chaos seed 7)\n",
                per_event, static_cast<unsigned long long>(events));
    metrics.add("telemetry_allocs_per_event_deterministic", per_event);
    constexpr double kMaxTelemetryAllocsPerEvent = 0.25;
    if (per_event > kMaxTelemetryAllocsPerEvent) {
      std::fprintf(stderr,
                   "FAIL: the telemetry Hub cost %.2f allocs/event on chaos seed 7 (gate %.2f: "
                   "recording an event must not build strings)\n",
                   per_event, kMaxTelemetryAllocsPerEvent);
      return 1;
    }
  }

  std::printf("\n[6] event kernel, x-kernel stack and CPU backlog allocations (steady state)\n");
  const double per_event = kernel_allocs_per_event();
  const double per_frame = xkernel_allocs_per_frame();
  const double per_release = cpu_allocs_per_release();
  std::printf("  event kernel  %14.4f allocs/event\n", per_event);
  std::printf("  x-kernel      %14.4f allocs/frame\n", per_frame);
  std::printf("  cpu backlog   %14.4f allocs/release\n", per_release);
  metrics.add("kernel_allocs_per_event", per_event);
  metrics.add("xkernel_allocs_per_frame", per_frame);
  metrics.add("cpu_allocs_per_release", per_release);
  if (per_release > 0) {
    std::fprintf(stderr,
                 "FAIL: a periodic release cost %.4f allocations (expected 0: a backlog "
                 "keeps the buffer it grew in the first burst)\n",
                 per_release);
    return 1;
  }

  std::printf("\n[7] explorer allocations (explore_main's default sweep, the wide sweep)\n");
  const double per_trajectory = explore_allocs_per_trajectory(explore_sweep(false));
  const double per_wide_trajectory = explore_allocs_per_trajectory(explore_sweep(true));
  std::printf("  2-node pair   %14.1f allocs/trajectory\n", per_trajectory);
  std::printf("  2 backups     %14.1f allocs/trajectory\n", per_wide_trajectory);
  metrics.add("explore_allocs_per_trajectory", per_trajectory);
  metrics.add("explore_wide_allocs_per_trajectory", per_wide_trajectory);
  // 10% over the recorded counts: a copy of every object state per hash, a
  // re-hashed replay prefix or (on the wide sweep) a copy of every hashed
  // tie's event tags lands above them.
  constexpr double kMaxExploreAllocsPerTrajectory = 340;
  constexpr double kMaxExploreWideAllocsPerTrajectory = 423;
  if (per_trajectory > kMaxExploreAllocsPerTrajectory ||
      per_wide_trajectory > kMaxExploreWideAllocsPerTrajectory) {
    std::fprintf(stderr,
                 "FAIL: the explorer cost %.1f allocs/trajectory on its default sweep "
                 "(gate %.0f) and %.1f on the wide sweep (gate %.0f)\n",
                 per_trajectory, kMaxExploreAllocsPerTrajectory, per_wide_trajectory,
                 kMaxExploreWideAllocsPerTrajectory);
    return 1;
  }

  std::printf("\n[8] WAL append allocations (DurableStore::log_write, 256 B value)\n");
  const double per_append = wal_allocs_per_append();
  std::printf("  store         %14.2f allocs/append\n", per_append);
  metrics.add("wal_allocs_per_append", per_append);
  if (per_append > 0) {
    std::fprintf(stderr,
                 "FAIL: a WAL append cost %.2f allocations (expected 0: every record is "
                 "framed in place in one reused buffer)\n",
                 per_append);
    return 1;
  }

  std::printf("\n");
  return metrics.write(out_path) ? 0 : 1;
}
