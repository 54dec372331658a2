#include "chaos/schedule.hpp"

#include <algorithm>
#include <cstdio>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rtpb::chaos {

using core::Fault;
using core::FaultKind;

namespace {

TimePoint at_ms(std::int64_t ms) { return TimePoint::zero() + millis(ms); }

/// Scale an event count by intensity, keeping at least one when the base
/// count was positive (an "enabled" family should do *something*).
std::int64_t scale_count(std::int64_t base, double intensity) {
  if (base <= 0 || intensity <= 0.0) return 0;
  const auto scaled =
      static_cast<std::int64_t>(static_cast<double>(base) * intensity + 0.5);
  return std::max<std::int64_t>(1, scaled);
}

/// Probability quantised to 0.01 so the rendered reproducer is exact.
double percent(Rng& rng, std::int64_t lo, std::int64_t hi) {
  return static_cast<double>(rng.uniform(lo, hi)) / 100.0;
}

}  // namespace

core::ServiceConfig ChaosOptions::hardened_config() {
  core::ServiceConfig c;
  // Lemma 2 admission: phase variance of client/update tasks is absorbed
  // up front, so a CPU running near its admission bound cannot cause the
  // brief out-of-window excursions the §4.2 test tolerates.
  c.variance_aware_admission = true;
  // Patient failure detection: ~600 ms to declare a peer dead.  With the
  // generator's link-fault probabilities capped at 0.35, the chance that
  // every heartbeat and every update in a 600 ms span is lost — the only
  // path to a false failover, i.e. split brain — is below 1e-9 per storm.
  c.ping_period = millis(50);
  c.ping_ack_timeout = millis(25);
  c.ping_max_misses = 12;
  return c;
}

net::LinkParams ChaosOptions::default_link() {
  net::LinkParams l;
  l.propagation = millis(1);
  l.jitter = micros(200);
  return l;
}

ChaosSchedule generate_schedule(std::uint64_t seed, const ChaosOptions& opts) {
  ChaosSchedule s;
  s.seed = seed;
  s.service_seed = derive_stream_seed(seed, kStreamService);
  const std::int64_t dur_ms = opts.duration.nanos() / 1'000'000;
  // Leave the first second for registration/state transfer and the last
  // quarter for recovery proof; too-short runs get no faults at all.
  const std::int64_t fault_floor = 1000;
  const std::int64_t fault_ceil = dur_ms * 3 / 4;

  if (opts.enable_loss_storms && fault_ceil > fault_floor + 500) {
    Rng rng{derive_stream_seed(seed, kStreamLoss)};
    const std::int64_t n = scale_count(rng.uniform(1, 3), opts.intensity);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t from = rng.uniform(fault_floor, fault_ceil);
      const std::int64_t len = rng.uniform(500, 2500);
      // Update-stream loss only: heartbeats still flow, so any probability
      // is failure-detector-safe (the paper's §5 methodology).
      s.events.push_back({FaultKind::kLossStorm, at_ms(from),
                          at_ms(std::min(from + len, dur_ms)), percent(rng, 15, 70)});
    }
  }

  if (opts.enable_link_faults && fault_ceil > fault_floor + 500) {
    Rng rng{derive_stream_seed(seed, kStreamLink)};
    const std::int64_t n = scale_count(rng.uniform(2, 4), opts.intensity);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t from = rng.uniform(fault_floor, fault_ceil);
      const std::int64_t len = rng.uniform(500, 2000);
      const TimePoint a = at_ms(from);
      const TimePoint b = at_ms(std::min(from + len, dur_ms));
      Fault e;
      e.at = a;
      e.until = b;
      // Loss-like probabilities stay ≤ 0.35: see hardened_config().
      switch (rng.uniform(0, 4)) {
        case 0:
          e.kind = FaultKind::kLinkDegradation;
          e.probability = percent(rng, 5, 35);
          break;
        case 1:
          e.kind = FaultKind::kDuplicationBurst;
          e.probability = percent(rng, 10, 50);
          break;
        case 2:
          e.kind = FaultKind::kReorderBurst;
          e.probability = percent(rng, 20, 60);
          e.extra = millis(rng.uniform(1, 5));
          break;
        case 3:
          e.kind = FaultKind::kBurstLoss;
          e.probability = percent(rng, 1, 4);
          e.burst_length = static_cast<std::uint32_t>(rng.uniform(3, 6));
          break;
        default:
          e.kind = FaultKind::kCorruptionBurst;
          e.probability = percent(rng, 5, 30);
          break;
      }
      s.events.push_back(e);
    }
  }

  if (opts.enable_overload && fault_ceil > fault_floor + 500) {
    Rng rng{derive_stream_seed(seed, kStreamOverload)};
    const std::int64_t n = scale_count(rng.uniform(1, 3), opts.intensity);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t from = rng.uniform(fault_floor, fault_ceil);
      const std::int64_t len = rng.uniform(1000, 3000);
      Fault e;
      e.at = at_ms(from);
      e.until = at_ms(std::min(from + len, dur_ms));
      switch (rng.uniform(0, 2)) {
        case 0:
          // Steal 30–70% of the primary's CPU.
          e.kind = FaultKind::kCpuSpike;
          e.probability = percent(rng, 30, 70);
          break;
        case 1:
          // Crush the link to 2–10% of its bandwidth: transmission delay
          // balloons 10–50× and the FIFO floor turns it into queueing.
          e.kind = FaultKind::kThrottleBandwidth;
          e.probability = percent(rng, 2, 10);
          break;
        default:
          // Add 20–120 ms of base propagation: RTT inflation far past the
          // fixed ack timeout — only adaptive timeouts ride it out.
          e.kind = FaultKind::kInflateLatency;
          e.extra = millis(rng.uniform(20, 120));
          break;
      }
      s.events.push_back(e);
    }
  }

  // Shard-scoped loss: like a loss storm but confined to one shard's
  // objects (per-object overrides, installed by the harness, which knows
  // the directory placement).  Only drawn when sharding is on, so a
  // shards=1 run never touches this stream.
  if (opts.shards > 1 && fault_ceil > fault_floor + 500) {
    Rng rng{derive_stream_seed(seed, kStreamShard)};
    const std::int64_t n = scale_count(rng.uniform(1, 3), opts.intensity);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t from = rng.uniform(fault_floor, fault_ceil);
      const std::int64_t len = rng.uniform(500, 2000);
      Fault e;
      e.kind = FaultKind::kShardLossStorm;
      e.at = at_ms(from);
      e.until = at_ms(std::min(from + len, dur_ms));
      e.probability = percent(rng, 15, 70);
      e.shard = static_cast<std::uint32_t>(
          rng.uniform(0, static_cast<std::int64_t>(opts.shards) - 1));
      s.events.push_back(e);
    }
  }

  // Partition scenario: isolate the primary from its successor so both
  // keep running (split brain) — epoch fencing's job to resolve.  It uses
  // the same failover machinery as a crash, so when active it replaces the
  // crash family (independent streams keep every other family's draws
  // unchanged either way).
  const bool partition_active =
      opts.enable_partition && opts.backups >= 2 && dur_ms >= 12000;
  if (partition_active) {
    Rng rng{derive_stream_seed(seed, kStreamPartition)};
    const std::int64_t cut = rng.uniform(dur_ms * 3 / 10, dur_ms * 55 / 100);
    s.events.push_back({FaultKind::kPartitionPrimary, at_ms(cut), at_ms(cut)});
  }

  // Crash–restart scenario: one durable replica dies mid-run and powers
  // back up 0.8–2 s later, rejoining through incremental resync.  Uses the
  // same failover machinery as a plain crash, so when active it replaces
  // the crash family (its own stream keeps every other family's draws
  // unchanged either way).  The `until` field carries the restart instant.
  const bool crash_restart_active = opts.enable_crash_restart && dur_ms >= 12000;
  if (crash_restart_active) {
    Rng rng{derive_stream_seed(seed, kStreamCrashRestart)};
    const bool hit_backup = rng.bernoulli(opts.crash_backup_bias);
    const std::int64_t crash = rng.uniform(dur_ms * 3 / 10, dur_ms * 55 / 100);
    const std::int64_t restart = crash + rng.uniform(800, 2000);
    s.events.push_back(
        {hit_backup ? FaultKind::kCrashRestartBackup : FaultKind::kCrashRestartPrimary,
         at_ms(crash), at_ms(restart)});
  }

  // One crash scenario per run at most: the service supports a single
  // recruited standby, so a second crash would leave nothing to fail to.
  if (opts.enable_crashes && !partition_active && !crash_restart_active && dur_ms >= 12000) {
    Rng rng{derive_stream_seed(seed, kStreamCrash)};
    if (rng.bernoulli(opts.crash_probability)) {
      const bool hit_backup = rng.bernoulli(opts.crash_backup_bias);
      const std::int64_t crash = rng.uniform(dur_ms * 3 / 10, dur_ms * 55 / 100);
      const std::int64_t standby = crash + rng.uniform(1500, 3000);
      s.events.push_back({hit_backup ? FaultKind::kCrashBackup : FaultKind::kCrashPrimary,
                          at_ms(crash), at_ms(crash)});
      s.events.push_back({FaultKind::kAddStandby, at_ms(standby), at_ms(standby)});
    }
  }

  std::stable_sort(s.events.begin(), s.events.end(),
                   [](const Fault& a, const Fault& b) { return a.at < b.at; });
  return s;
}

FaultEpoch declared_epoch(const Fault& f, TimePoint recovered, Duration settle,
                          Duration failover_grace) {
  switch (f.kind) {
    case FaultKind::kCrashPrimary:
    case FaultKind::kCrashBackup:
      return {f.at, recovered + failover_grace, f.kind};
    case FaultKind::kAddStandby:
      return {f.at, f.at + failover_grace, f.kind};
    case FaultKind::kPartitionPrimary:
      // Detection + promotion + recruitment + depose notice + the new
      // primary's version counter overtaking the survivor's divergent
      // suffix: double the failover grace covers the whole arc.
      return {f.at, f.at + failover_grace + failover_grace, f.kind};
    case FaultKind::kCrashRestartPrimary:
    case FaultKind::kCrashRestartBackup:
      // One epoch spans the whole crash → restart → resync catch-up arc
      // (`until` is the restart instant).
      return {f.at, f.until + failover_grace, f.kind};
    case FaultKind::kLossStorm:
    case FaultKind::kLinkDegradation:
    case FaultKind::kDuplicationBurst:
    case FaultKind::kReorderBurst:
    case FaultKind::kBurstLoss:
    case FaultKind::kCorruptionBurst:
    case FaultKind::kCpuSpike:
    case FaultKind::kThrottleBandwidth:
    case FaultKind::kInflateLatency:
    case FaultKind::kShardLossStorm:
      break;
  }
  return {f.at, f.until + settle, f.kind};
}

std::vector<FaultEpoch> declared_epochs(const ChaosSchedule& schedule,
                                        const ChaosOptions& opts) {
  TimePoint standby_at = TimePoint::max();
  for (const Fault& e : schedule.events) {
    if (e.kind == FaultKind::kAddStandby) standby_at = e.at;
  }
  std::vector<FaultEpoch> epochs;
  for (const Fault& e : schedule.events) {
    const TimePoint recovered = standby_at == TimePoint::max() ? e.at : standby_at;
    epochs.push_back(declared_epoch(e, recovered, opts.settle, opts.failover_grace));
  }
  return epochs;
}

Workload generate_workload(std::uint64_t seed, const ChaosOptions& opts) {
  Rng rng{derive_stream_seed(seed, kStreamWorkload)};
  static constexpr std::int64_t kPeriodsMs[] = {10, 20, 25, 50};
  static constexpr std::int64_t kWindowsMs[] = {80, 160, 240, 320};
  static constexpr std::uint32_t kSizes[] = {32, 64, 128, 256, 512, 1024};

  Workload w;
  for (std::size_t i = 0; i < opts.objects; ++i) {
    core::ObjectSpec spec;
    spec.id = static_cast<core::ObjectId>(i + 1);
    spec.name = "chaos-obj-" + std::to_string(spec.id);
    const std::int64_t p = kPeriodsMs[rng.uniform(0, 3)];
    spec.client_period = millis(p);
    spec.client_exec = micros(200);
    spec.update_exec = micros(500);
    spec.size_bytes = kSizes[rng.uniform(0, 5)];
    // δ_P must admit the write period; the window rides on top of it.
    spec.delta_primary = millis(p + 10);
    spec.delta_backup = spec.delta_primary + millis(kWindowsMs[rng.uniform(0, 3)]);
    w.objects.push_back(spec);
  }
  if (opts.objects >= 2 && rng.bernoulli(0.5)) {
    w.constraints.push_back({1, 2, millis(rng.uniform(150, 400))});
  }
  return w;
}

std::string render_reproducer(const ChaosSchedule& schedule, const ChaosOptions& opts) {
  std::string out;
  char line[1024];

  std::snprintf(line, sizeof line,
                "// ---- chaos reproducer: seed %llu ----\n"
                "// auto at_ms = [](std::int64_t m) { return TimePoint::zero() + millis(m); };\n"
                "chaos::ChaosOptions opts;  // defaults as of this build\n"
                "core::ServiceParams params;\n"
                "params.seed = 0x%llxULL;  // derive_stream_seed(seed, kStreamService)\n"
                "params.link = opts.link;\n"
                "params.config = opts.config;\n"
                "params.backup_count = %zu;\n"
                "params.durable = %s;\n"
                "core::RtpbService service(params);\n"
                "service.start();\n"
                "auto workload = chaos::generate_workload(%lluULL, opts);\n"
                "for (const auto& spec : workload.objects) service.register_object(spec);\n"
                "for (const auto& c : workload.constraints) service.add_constraint(c);\n"
                "core::FaultPlan plan(service);\n",
                static_cast<unsigned long long>(schedule.seed),
                static_cast<unsigned long long>(schedule.service_seed), opts.backups,
                opts.enable_crash_restart ? "true" : "false",
                static_cast<unsigned long long>(schedule.seed));
  out += line;

  for (const Fault& e : schedule.events) out += core::reproducer_line(e, core::ReproTime::kMillis);

  std::snprintf(line, sizeof line,
                "plan.arm();\n"
                "service.run_for(millis(%lld));\n"
                "service.finish();\n",
                static_cast<long long>(opts.duration.nanos() / 1'000'000));
  out += line;
  return out;
}

}  // namespace rtpb::chaos
