// The five benchmark workloads.  Each drives one layer mix through the
// library's public API:
//
//   wide_group          one 256-object service: per-object scans dominate
//                       (sched ready queue, sim queue depth, core maps)
//   fanout_long         8 objects to 8 backups over a long span: the
//                       per-frame path (wire codec, xkernel fan-out, net)
//   parallel_groups     the same 256 objects as 64 groups on the PDES
//                       engine at 2 threads (psim windows and barriers)
//   chaos_observed      chaos::run_seed over a seed window with overload,
//                       crash-restart, telemetry and the flight recorder
//   explore_exhaustive  an exhaustive explore::explore sweep
//
// Inputs come from the input-set index only; the library never sees the
// benchmark seed.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "chaos/harness.hpp"
#include "common/alloc_hook.hpp"
#include "core/service.hpp"
#include "explore/explorer.hpp"
#include "perfbench.hpp"
#include "probes.hpp"
#include "psim/partitioned.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

using namespace rtpb;
using bench::alloc_hook::Scope;

namespace {

constexpr std::uint64_t kSeedRoot = 0x7e57'be4c'0000'0000ULL;

[[nodiscard]] std::uint64_t input_seed(std::uint64_t input, std::uint64_t stream) {
  return derive_stream_seed(kSeedRoot + input, stream);
}

/// Virtual slice between per-layer samples in traced runs.
constexpr Duration kSlice = millis(10);

std::string describe(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

void add_pending_quantiles(Values& layer, std::vector<double> samples) {
  if (samples.empty()) return;
  std::sort(samples.begin(), samples.end());
  layer["sim.pending_p50"] = samples[samples.size() / 2];
  layer["sim.pending_max"] = samples.back();
}

/// SampleSet keeps its samples private; sampling its quantile function at
/// the ranks k/(n−1) reads each one back exactly.
void append_samples(SampleSet& into, const SampleSet& from) {
  const std::size_t n = from.count();
  if (n == 1) into.add(from.quantile(0.0));
  for (std::size_t k = 0; n > 1 && k < n; ++k) {
    into.add(from.quantile(static_cast<double>(k) / static_cast<double>(n - 1)));
  }
}

// ---------------------------------------------------------------------------
// Replicated-service workloads (wide_group, fanout_long, parallel_groups).
// ---------------------------------------------------------------------------

/// Client objects with periods drawn from [lo, hi] ms and light execution
/// costs, so hundreds of objects pass admission on one CPU.
std::vector<core::ObjectSpec> make_objects(std::uint64_t input, std::size_t count,
                                           std::int64_t lo_ms, std::int64_t hi_ms) {
  Rng rng(input_seed(input, 1));
  std::vector<core::ObjectSpec> objects;
  objects.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    core::ObjectSpec spec;
    spec.id = static_cast<core::ObjectId>(i + 1);
    spec.name = "obj" + std::to_string(spec.id);
    spec.size_bytes = 64;
    spec.client_period = millis(rng.uniform(lo_ms, hi_ms));
    spec.client_exec = micros(20);
    spec.update_exec = micros(20);
    spec.delta_primary = millis(30);
    spec.delta_backup = spec.delta_primary + millis(100);
    objects.push_back(spec);
  }
  return objects;
}

/// 1 ms links with 0.2 ms jitter; batching on (the default config).
void set_link(net::LinkParams& link) {
  link.propagation = millis(1);
  link.jitter = micros(200);
}

/// A 256-object group stages more than the default 16 updates in one batch
/// window by design, which the degradation controller would read as
/// overload; raise its queue-depth trigger above the object count.
void set_wide_config(core::ServiceConfig& config) { config.overload_queue_depth = 1024; }

/// Monotone per-service counters, summed over replicas.  The difference
/// of two snapshots is the measured phase's work.
Values read_counters(core::RtpbService& service) {
  Values v;
  std::vector<core::ReplicaServer*> replicas{&service.primary()};
  for (auto& b : service.backups()) replicas.push_back(b.get());
  std::vector<net::NodeId> nodes;
  for (core::ReplicaServer* r : replicas) {
    v["updates"] += static_cast<double>(r->updates_sent() - r->retransmissions_served());
    v["frames"] += static_cast<double>(r->update_frames_sent());
    v["retransmissions"] += static_cast<double>(r->retransmissions_served());
    v["nacks"] += static_cast<double>(r->retransmit_requests_sent());
    v["applied"] += static_cast<double>(r->updates_applied());
    v["shed"] += static_cast<double>(r->updates_shed());
    v["downgrades"] += static_cast<double>(r->qos_downgrades_sent());
    v["resync_deltas"] += static_cast<double>(r->resync_deltas_sent());
    v["resync_fulls"] += static_cast<double>(r->resync_fulls_sent());
    v["jobs"] += static_cast<double>(r->cpu().jobs_completed());
    v["deadline_misses"] += static_cast<double>(r->cpu().deadline_misses());
    // HostStack exposes its protocols only through non-const accessors;
    // reading the counter does not modify the stack.
    v["checksum_failures"] += static_cast<double>(
        const_cast<xkernel::HostStack&>(r->stack()).udp().checksum_failures());
    nodes.push_back(r->node());
  }
  for (net::NodeId a : nodes) {
    for (net::NodeId b : nodes) {
      if (a == b || !service.network().link_params(a, b).has_value()) continue;
      const net::LinkStats& s = service.network().stats(a, b);
      v["net_frames"] += static_cast<double>(s.sent);
      v["net_dropped"] += static_cast<double>(s.dropped);
    }
  }
  v["writes"] = static_cast<double>(service.client().writes_issued() +
                                    service.backup_client().writes_issued());
  v["events"] = static_cast<double>(service.simulator().fired_events());
  return v;
}

/// Retained-sample counts: a level at the end of the run, not a flow.
Values read_retained(core::RtpbService& service) {
  Values v;
  v["response_samples_retained"] =
      static_cast<double>(service.metrics().response_times().count());
  std::vector<net::NodeId> nodes{service.primary().node()};
  for (auto& b : service.backups()) nodes.push_back(b->node());
  for (net::NodeId a : nodes) {
    for (net::NodeId b : nodes) {
      if (a == b || !service.network().link_params(a, b).has_value()) continue;
      v["net_delay_samples"] += static_cast<double>(service.network().stats(a, b).delays_ms.count());
    }
  }
  return v;
}

Values minus(Values after, const Values& before) {
  for (auto& [k, v] : after) v -= before.at(k);
  return after;
}

void accumulate(Values& into, const Values& from) {
  for (const auto& [k, v] : from) into[k] += v;
}

/// The primary's task set, for the bare-Cpu probe.
std::vector<sched::TaskSpec> task_set(sched::Cpu& cpu) {
  std::vector<sched::TaskSpec> tasks;
  for (sched::TaskId id = 1; tasks.size() < cpu.task_count() && id < 1'000'000; ++id) {
    if (cpu.has_task(id)) tasks.push_back(cpu.spec(id));
  }
  return tasks;
}

/// One check per offered object: admitted, and never out of its window.
void check_object(Rep& rep, core::RtpbService& service, const core::ObjectSpec& spec,
                  bool admitted) {
  ++rep.attempted;
  if (!admitted) {
    rep.failures.push_back("object " + std::to_string(spec.id) + " refused by admission");
    return;
  }
  const Duration d = service.metrics().max_distance(spec.id);
  const Duration w = service.metrics().window_of(spec.id);
  if (d > w) {
    rep.failures.push_back("object " + std::to_string(spec.id) +
                           describe(" max distance %.3f ms exceeds window %.3f ms", d.millis(),
                                    w.millis()));
  }
}

/// Pinned statistics and per-layer counters of the service workloads.
void record_service(Rep& rep, const Values& delta, const Values& retained,
                    const SampleSet& responses, double avg_max_distance_ms,
                    double inconsistency_ms, std::size_t admitted) {
  const double p50 = responses.empty() ? 0.0 : responses.quantile(0.5);
  const double p99 = responses.empty() ? 0.0 : responses.quantile(0.99);
  for (const char* k :
       {"events", "updates", "frames", "applied", "writes", "retransmissions", "nacks", "jobs"}) {
    rep.stats[k] = delta.at(k);
  }
  rep.stats["admitted"] = static_cast<double>(admitted);
  rep.stats["response_samples"] = static_cast<double>(responses.count());
  rep.stats["response_p50_ms"] = p50;
  rep.stats["response_p99_ms"] = p99;
  rep.stats["avg_max_distance_ms"] = avg_max_distance_ms;
  rep.stats["inconsistency_ms"] = inconsistency_ms;

  Values& l = rep.layer;
  l["response_p50_ms"] = p50;
  l["response_p99_ms"] = p99;
  l["response_samples"] = static_cast<double>(responses.count());
  l["avg_max_distance_ms"] = avg_max_distance_ms;
  l["inconsistency_ms"] = inconsistency_ms;
  l["sim.events"] = delta.at("events");
  l["sched.jobs"] = delta.at("jobs");
  l["sched.deadline_misses"] = delta.at("deadline_misses");
  const double updates = delta.at("updates");
  l["core.updates"] = updates;
  l["core.frames_per_update"] = updates > 0 ? delta.at("frames") / updates : 0.0;
  l["core.retransmissions"] = delta.at("retransmissions");
  l["core.nacks"] = delta.at("nacks");
  l["core.updates_shed"] = delta.at("shed");
  l["core.qos_downgrades"] = delta.at("downgrades");
  l["core.resync_deltas"] = delta.at("resync_deltas");
  l["core.resync_fulls"] = delta.at("resync_fulls");
  l["core.response_samples_retained"] = retained.at("response_samples_retained");
  l["xkernel.checksum_failures"] = delta.at("checksum_failures");
  l["net.frames"] = delta.at("net_frames");
  l["net.drop_share"] =
      delta.at("net_frames") > 0 ? delta.at("net_dropped") / delta.at("net_frames") : 0.0;
  l["net.delay_samples_retained"] = retained.at("net_delay_samples");
  l["_update_frames"] = delta.at("frames");
}

/// Bare-layer probes shared by the three service workloads, shaped by the
/// traced repetition (queue depth, batch size, fan-out, table size).
Values service_probes(const Rep& traced, std::size_t backups, sched::Policy policy,
                      const std::vector<sched::TaskSpec>& tasks, std::size_t objects) {
  Values v;
  const auto depth = traced.layer.find("sim.pending_p50");
  const Cost kernel =
      probe_sim_kernel(static_cast<std::size_t>(depth != traced.layer.end() ? depth->second : 64));
  v["sim.kernel_ns_per_event"] = kernel.ns;
  v["sim.kernel_allocs_per_event"] = kernel.allocs;
  const Cost sched_cost = probe_sched(policy, tasks);
  v["sched.ns_per_job"] = sched_cost.ns;
  v["_sched_events_per_job"] = sched_cost.events;
  const double frames = traced.layer.at("_update_frames");
  const double updates = traced.layer.at("core.updates");
  const auto entries = static_cast<std::size_t>(frames > 0 ? updates / frames + 0.5 : 1.0);
  const WireCost wire = probe_wire(entries, 64);
  v["core.wire_encode_ns"] = wire.encode_ns;
  v["core.wire_decode_ns"] = wire.decode_ns;
  v["core.wire_allocs_per_frame"] = wire.allocs;
  // Batch header plus per-entry id/version/timestamp/length and value,
  // cut to one FRAGLITE fragment: larger batches cross the stack and the
  // links as several fragment frames.
  const std::size_t frame_bytes =
      std::min<std::size_t>(16 + std::max<std::size_t>(entries, 1) * (64 + 24),
                            core::ServiceConfig{}.fragment_payload);
  const Cost xk = probe_xkernel(backups, frame_bytes);
  v["xkernel.ns_per_frame"] = xk.ns;
  v["xkernel.allocs_per_frame"] = xk.allocs;
  const Cost net = probe_net(frame_bytes);
  v["net.ns_per_frame"] = net.ns;
  v["_net_events_per_frame"] = net.events;
  const StoreCost store = probe_store(objects, 64);
  v["store.log_write_ns"] = store.log_write_ns;
  v["store.checkpoint_us"] = store.checkpoint_us;
  v["store.recover_us"] = store.recover_us;
  v["_peers"] = static_cast<double>(backups);
  return v;
}

/// Advance `service` by `span`; traced runs go in kSlice steps and sample
/// the pending-event count between them.
void advance(core::RtpbService& service, Duration span, bool traced,
             std::vector<double>& pending) {
  if (!traced) {
    service.run_for(span);
    return;
  }
  for (Duration done{}; done < span; done += kSlice) {
    service.run_for(std::min(kSlice, span - done));
    pending.push_back(static_cast<double>(service.simulator().pending_events()));
  }
}

/// One RtpbService (wide_group, fanout_long).
class ServiceWorkload final : public Workload {
 public:
  ServiceWorkload(std::vector<core::ObjectSpec> objects, core::ServiceParams params,
                  Duration warm_up, Duration span)
      : objects_(std::move(objects)), params_(std::move(params)), warm_up_(warm_up), span_(span) {}

  Rep run(bool traced) override {
    Rep rep;
    const Clock::time_point t0 = Clock::now();
    core::RtpbService service(params_);
    service.start();
    std::vector<bool> admitted;
    const Clock::time_point r0 = Clock::now();
    for (const core::ObjectSpec& spec : objects_) {
      admitted.push_back(service.register_object(spec).ok());
    }
    const double register_s = seconds_since(r0);
    service.warm_up(warm_up_);
    rep.setup_s = seconds_since(t0);

    const Values before = read_counters(service);
    std::vector<double> pending;
    const Scope scope;
    const Clock::time_point m0 = Clock::now();
    advance(service, span_, traced, pending);
    rep.run_s = seconds_since(m0);
    rep.allocs = scope.allocations();
    service.finish();
    const Values delta = minus(read_counters(service), before);
    rep.updates = static_cast<std::uint64_t>(delta.at("updates"));

    for (std::size_t i = 0; i < objects_.size(); ++i) {
      check_object(rep, service, objects_[i], admitted[i]);
    }
    const core::Metrics& m = service.metrics();
    record_service(rep, delta, read_retained(service), m.response_times(),
                   m.average_max_distance_ms(), m.total_inconsistency().millis(),
                   static_cast<std::size_t>(std::count(admitted.begin(), admitted.end(), true)));
    rep.layer["core.register_us"] = register_s * 1e6 / static_cast<double>(objects_.size());
    sched::Cpu& cpu = service.primary().cpu();
    rep.layer["sched.tasks"] = static_cast<double>(cpu.task_count());
    rep.layer["sched.busy_fraction"] = cpu.busy_fraction();
    add_pending_quantiles(rep.layer, pending);
    if (traced) {
      tasks_ = task_set(cpu);
      policy_ = cpu.policy();
    }
    return rep;
  }

  Values layer_probes(const Rep& /*untraced*/, const Rep& traced) override {
    return service_probes(traced, params_.backup_count, policy_, tasks_, objects_.size());
  }

 private:
  std::vector<core::ObjectSpec> objects_;
  core::ServiceParams params_;
  Duration warm_up_;
  Duration span_;
  std::vector<sched::TaskSpec> tasks_;
  sched::Policy policy_ = sched::Policy::kRateMonotonic;
};

// ---------------------------------------------------------------------------
// parallel_groups
// ---------------------------------------------------------------------------

/// Benchmark-owned decorator around a GroupPartition: times each driver
/// call and samples the group's queue depth once per window.  Each
/// instance is touched only by the worker thread that owns its partition.
class TimedPartition final : public psim::PartitionTask {
 public:
  explicit TimedPartition(psim::GroupPartition& inner) : inner_(inner) {}

  void begin_window(TimePoint start) override {
    const Clock::time_point t0 = Clock::now();
    inner_.begin_window(start);
    busy_s_ += seconds_since(t0);
  }
  void advance_to(TimePoint horizon) override {
    const Clock::time_point t0 = Clock::now();
    inner_.advance_to(horizon);
    busy_s_ += seconds_since(t0);
    pending_.push_back(static_cast<double>(inner_.service().simulator().pending_events()));
  }
  void end_window(TimePoint horizon) override {
    const Clock::time_point t0 = Clock::now();
    inner_.end_window(horizon);
    busy_s_ += seconds_since(t0);
  }

  [[nodiscard]] double busy_s() const { return busy_s_; }
  [[nodiscard]] const std::vector<double>& pending() const { return pending_; }

 private:
  psim::GroupPartition& inner_;
  double busy_s_ = 0.0;
  std::vector<double> pending_;
};

class ParallelWorkload final : public Workload {
 public:
  ParallelWorkload(std::vector<core::ObjectSpec> objects, std::uint64_t input,
                   std::uint32_t groups, std::size_t backups, std::size_t threads,
                   Duration warm_up, Duration span)
      : objects_(std::move(objects)),
        input_(input),
        groups_(groups),
        backups_(backups),
        threads_(threads),
        warm_up_(warm_up),
        span_(span) {}

  Rep run(bool traced) override { return run_at(threads_, traced); }

  Values layer_probes(const Rep& untraced, const Rep& traced) override {
    Values v = service_probes(traced, backups_, policy_, tasks_, objects_.size() / groups_);
    const Rep single = run_at(1, false);
    v["psim.speedup_t2"] = untraced.run_s > 0 ? single.run_s / untraced.run_s : 0.0;
    v["_threads"] = static_cast<double>(threads_);
    return v;
  }

 private:
  Rep run_at(std::size_t threads, bool traced) {
    Rep rep;
    const Clock::time_point t0 = Clock::now();
    psim::PartitionedClusterParams params;
    params.seed = input_seed(input_, 2);
    set_link(params.link);
    set_wide_config(params.config);
    params.group_count = groups_;
    params.backup_count = backups_;
    psim::PartitionedCluster cluster(params);
    cluster.start();
    const std::size_t per_group = objects_.size() / groups_;
    std::vector<bool> admitted;
    const Clock::time_point r0 = Clock::now();
    for (std::size_t i = 0; i < objects_.size(); ++i) {
      const auto g = static_cast<std::uint32_t>(i / per_group);
      admitted.push_back(cluster.register_object_in(g, objects_[i]).ok());
    }
    const double register_s = seconds_since(r0);
    (void)cluster.run_for(warm_up_, threads);
    for (std::uint32_t g = 0; g < groups_; ++g) {
      cluster.service(g).metrics().reset_statistics();
    }
    rep.setup_s = seconds_since(t0);

    Values before;
    for (std::uint32_t g = 0; g < groups_; ++g) accumulate(before, read_counters(cluster.service(g)));
    const std::uint64_t published0 = cluster.frontier_records_published();
    std::vector<std::unique_ptr<TimedPartition>> timed;
    std::vector<psim::PartitionTask*> tasks;
    for (std::uint32_t g = 0; traced && g < groups_; ++g) {
      timed.push_back(std::make_unique<TimedPartition>(cluster.partition(g)));
      tasks.push_back(timed.back().get());
    }
    psim::DriverStats stats;
    const Scope scope;
    const Clock::time_point m0 = Clock::now();
    if (traced) {
      // Same windows as PartitionedCluster::run_for, through the decorators.
      psim::ParallelDriver driver(tasks, cluster.window());
      stats = driver.run(cluster.now(), cluster.now() + span_, threads);
    } else {
      stats = cluster.run_for(span_, threads);
    }
    rep.run_s = seconds_since(m0);
    rep.allocs = scope.allocations();
    cluster.finish();

    Values after;
    Values retained;
    SampleSet responses;
    double distance_sum = 0.0;
    double inconsistency_ms = 0.0;
    for (std::uint32_t g = 0; g < groups_; ++g) {
      core::RtpbService& s = cluster.service(g);
      accumulate(after, read_counters(s));
      accumulate(retained, read_retained(s));
      append_samples(responses, s.metrics().response_times());
      distance_sum += s.metrics().average_max_distance_ms();
      inconsistency_ms += s.metrics().total_inconsistency().millis();
    }
    const Values delta = minus(after, before);
    rep.updates = static_cast<std::uint64_t>(delta.at("updates"));
    for (std::size_t i = 0; i < objects_.size(); ++i) {
      const auto g = static_cast<std::uint32_t>(i / per_group);
      check_object(rep, cluster.service(g), objects_[i], admitted[i]);
    }
    record_service(rep, delta, retained, responses, distance_sum / groups_, inconsistency_ms,
                   static_cast<std::size_t>(std::count(admitted.begin(), admitted.end(), true)));
    rep.stats["psim.windows"] = static_cast<double>(stats.windows);
    rep.stats["psim.frontier_records"] =
        static_cast<double>(cluster.frontier_records_published() - published0);

    Values& l = rep.layer;
    l["core.register_us"] = register_s * 1e6 / static_cast<double>(objects_.size());
    sched::Cpu& cpu = cluster.service(0).primary().cpu();
    l["sched.tasks"] = static_cast<double>(cpu.task_count());
    l["sched.busy_fraction"] = cpu.busy_fraction();
    l["psim.windows"] = static_cast<double>(stats.windows);
    l["psim.barriers"] = static_cast<double>(stats.barriers);
    l["psim.frontier_records"] = rep.stats["psim.frontier_records"];
    if (traced) {
      double busy = 0.0;
      std::vector<double> pending;
      for (const auto& t : timed) {
        busy += t->busy_s();
        pending.insert(pending.end(), t->pending().begin(), t->pending().end());
      }
      const double capacity = rep.run_s * static_cast<double>(stats.threads);
      l["psim.busy_share"] = capacity > 0 ? busy / capacity : 0.0;
      l["psim.barrier_wait_ms"] = std::max(0.0, capacity - busy) * 1e3;
      add_pending_quantiles(l, pending);
      tasks_ = task_set(cpu);
      policy_ = cpu.policy();
    }
    return rep;
  }

  std::vector<core::ObjectSpec> objects_;
  std::uint64_t input_;
  std::uint32_t groups_;
  std::size_t backups_;
  std::size_t threads_;
  Duration warm_up_;
  Duration span_;
  std::vector<sched::TaskSpec> tasks_;
  sched::Policy policy_ = sched::Policy::kRateMonotonic;
};

// ---------------------------------------------------------------------------
// chaos_observed
// ---------------------------------------------------------------------------

/// Value of `"key":<number>` in a registry JSON snapshot (0 if absent).
/// Counter names used here are unique leaves of the snapshot.
double registry_value(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

chaos::ChaosOptions chaos_options(bool tiny, bool observed) {
  chaos::ChaosOptions opts;
  opts.backups = 2;
  opts.enable_overload = true;
  opts.enable_crash_restart = true;
  opts.telemetry = observed;
  opts.flight_recorder = observed;
  if (tiny) opts.duration = seconds(3);
  return opts;
}

std::string replay_line(std::uint64_t seed, const chaos::ChaosOptions& opts) {
  return "chaos_main --seed " + std::to_string(seed) + " --backups 2 --overload --crash-restart" +
         " --duration-ms " + std::to_string(opts.duration.nanos() / 1'000'000) +
         " --telemetry --flight-recorder";
}

std::string violation_line(const chaos::SeedReport& r, const chaos::ChaosOptions& opts) {
  return "chaos seed " + std::to_string(r.seed) + " violates " + r.violations.front().oracle +
         " at " + r.violations.front().at.to_string() + " (replay: " + replay_line(r.seed, opts) +
         ")";
}

class ChaosWorkload final : public Workload {
 public:
  /// The seed set of input set `input`: a core of `core` seeds shared by
  /// every input set, which keeps host times comparable across runs, plus
  /// `tail` seeds of the input set's own.  Seeds recorded as failing are
  /// left out; every run replays all of them after the measured phase.
  ChaosWorkload(std::uint64_t input, std::uint64_t core, std::uint64_t tail, bool tiny,
                std::vector<std::uint64_t> known_failures)
      : opts_(chaos_options(tiny, true)), tiny_(tiny), known_(std::move(known_failures)) {
    std::vector<std::uint64_t> window;
    for (std::uint64_t s = 0; s < core; ++s) window.push_back(s);
    for (std::uint64_t s = core + input * tail; s < core + (input + 1) * tail; ++s) {
      window.push_back(s);
    }
    for (std::uint64_t s : window) {
      if (std::find(known_.begin(), known_.end(), s) == known_.end()) {
        seeds_.push_back(s);
      }
    }
  }

  Rep run(bool /*traced*/) override {
    Rep rep;
    const Clock::time_point t0 = Clock::now();
    // Set-up: generate every seed's fault schedule and workload, then warm
    // up with one short seed outside the window.
    double schedule_events = 0.0;
    std::vector<double> schedule_us;
    for (std::uint64_t seed : seeds_) {
      const Clock::time_point s0 = Clock::now();
      const chaos::ChaosSchedule schedule = chaos::generate_schedule(seed, opts_);
      const chaos::Workload workload = chaos::generate_workload(seed, opts_);
      schedule_us.push_back(seconds_since(s0) * 1e6);
      schedule_events += static_cast<double>(schedule.events.size() + workload.objects.size());
    }
    chaos::ChaosOptions warm = opts_;
    warm.duration = seconds(1);
    (void)chaos::run_seed(~std::uint64_t{0}, warm);
    rep.setup_s = seconds_since(t0);

    Values sum;
    const Scope scope;
    const Clock::time_point m0 = Clock::now();
    std::vector<chaos::SeedReport> reports;
    reports.reserve(seeds_.size());
    for (std::uint64_t seed : seeds_) reports.push_back(chaos::run_seed(seed, opts_));
    rep.run_s = seconds_since(m0);
    rep.allocs = scope.allocations();

    double distance = 0.0;
    for (const chaos::SeedReport& r : reports) {
      ++rep.attempted;
      if (!r.ok()) rep.failures.push_back(violation_line(r, opts_));
      const std::string& m = r.metrics_json;
      sum["updates"] += registry_value(m, "update_sends");
      sum["events"] += static_cast<double>(r.sim_events);
      sum["writes"] += static_cast<double>(r.client_writes);
      sum["applied"] += static_cast<double>(r.updates_applied);
      sum["oracle_checks"] += static_cast<double>(r.oracle_checks);
      sum["violations"] += static_cast<double>(r.violation_count);
      sum["faults_fired"] += static_cast<double>(r.fired.size());
      sum["admitted"] += static_cast<double>(r.objects_admitted);
      sum["recoveries"] += static_cast<double>(r.recoveries);
      sum["resync_deltas"] += static_cast<double>(r.resync_deltas);
      sum["resync_fulls"] += static_cast<double>(r.resync_fulls);
      sum["shed"] += static_cast<double>(r.updates_shed);
      sum["downgrades"] += static_cast<double>(r.qos_downgrades);
      sum["inconsistency_ms"] += r.total_inconsistency_ms;
      sum["spans"] += static_cast<double>(r.spans_started);
      sum["flight_events"] += static_cast<double>(r.flight_events);
      sum["wal_records"] += registry_value(m, "wal_records");
      sum["checkpoints"] += registry_value(m, "checkpoints");
      sum["retransmissions"] += registry_value(m, "retransmissions");
      sum["nacks"] += registry_value(m, "retransmit_requests");
      sum["net_frames"] += registry_value(m, "sends");
      sum["net_drops"] += registry_value(m, "drops");
      sum["checksum_failures"] += registry_value(m, "checksum_failures");
      distance += r.avg_max_distance_ms;
      rep.stats["seed." + std::to_string(r.seed) + ".violations"] =
          static_cast<double>(r.violation_count);
    }
    const auto n = static_cast<double>(std::max<std::size_t>(reports.size(), 1));
    rep.updates = static_cast<std::uint64_t>(sum["updates"]);
    for (const char* k : {"updates", "events", "writes", "applied", "oracle_checks", "violations",
                          "faults_fired", "admitted", "recoveries", "resync_deltas",
                          "resync_fulls", "inconsistency_ms", "spans", "flight_events"}) {
      rep.stats[k] = sum[k];
    }
    rep.stats["avg_max_distance_ms"] = distance / n;
    rep.stats["schedule_entries"] = schedule_events;

    Values& l = rep.layer;
    l["avg_max_distance_ms"] = distance / n;
    l["inconsistency_ms"] = sum["inconsistency_ms"];
    l["sim.events"] = sum["events"];
    l["core.updates"] = sum["updates"];
    l["core.retransmissions"] = sum["retransmissions"];
    l["core.nacks"] = sum["nacks"];
    l["core.updates_shed"] = sum["shed"];
    l["core.qos_downgrades"] = sum["downgrades"];
    l["core.resync_deltas"] = sum["resync_deltas"];
    l["core.resync_fulls"] = sum["resync_fulls"];
    l["xkernel.checksum_failures"] = sum["checksum_failures"];
    l["net.frames"] = sum["net_frames"];
    l["net.drop_share"] = sum["net_frames"] > 0 ? sum["net_drops"] / sum["net_frames"] : 0.0;
    l["store.wal_appends"] = sum["wal_records"];
    l["store.checkpoints"] = sum["checkpoints"];
    l["store.recoveries"] = sum["recoveries"];
    l["telemetry.spans_per_seed"] = sum["spans"] / n;
    l["telemetry.flight_events_per_seed"] = sum["flight_events"] / n;
    l["chaos.oracle_checks"] = sum["oracle_checks"];
    l["chaos.violations"] = sum["violations"];
    l["chaos.faults_fired"] = sum["faults_fired"];
    l["chaos.schedule_us"] = median(schedule_us);
    return rep;
  }

  Values layer_probes(const Rep& untraced, const Rep& /*traced*/) override {
    Values v;
    // Same seeds with telemetry and the flight recorder off.
    const chaos::ChaosOptions plain = chaos_options(tiny_, false);
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t seed : seeds_) (void)chaos::run_seed(seed, plain);
    const double plain_s = seconds_since(t0);
    v["telemetry.overhead_ratio"] = plain_s > 0 ? untraced.run_s / plain_s : 0.0;
    const Cost kernel = probe_sim_kernel(64);
    v["sim.kernel_ns_per_event"] = kernel.ns;
    v["sim.kernel_allocs_per_event"] = kernel.allocs;
    const StoreCost store = probe_store(opts_.objects, 64);
    v["store.log_write_ns"] = store.log_write_ns;
    v["store.checkpoint_us"] = store.checkpoint_us;
    v["store.recover_us"] = store.recover_us;
    return v;
  }

  std::vector<std::string> replay_known_failures() override {
    std::vector<std::string> out;
    for (std::uint64_t seed : known_) {
      const chaos::SeedReport r = chaos::run_seed(seed, opts_);
      std::string verdict = std::to_string(seed) + " ";
      if (r.ok()) {
        verdict += "ok";
      } else {
        verdict += r.violations.front().oracle + " " +
                   describe("%.3f", r.violations.front().at.millis(), 0.0);
      }
      out.push_back(verdict + " | replay: " + replay_line(seed, opts_));
    }
    return out;
  }

 private:
  chaos::ChaosOptions opts_;
  bool tiny_;
  std::vector<std::uint64_t> seeds_;
  std::vector<std::uint64_t> known_;
};

// ---------------------------------------------------------------------------
// explore_exhaustive
// ---------------------------------------------------------------------------

explore::ExploreConfig explore_config(std::uint64_t input, bool tiny) {
  explore::ExploreConfig cfg;
  cfg.backups = tiny ? 1 : 2;
  cfg.objects = tiny ? 1 : 2;
  cfg.service_seed = input_seed(input, 2);
  cfg.bounds.fault_budget = 2;
  cfg.bounds.max_choice_points = 1000;
  // explore_main's default scenario: a droppable-frame window before the
  // failover, and crash / crash / recruit candidates off the 20 ms grids.
  cfg.bounds.drop_from = TimePoint::zero() + millis(101);
  cfg.bounds.drop_until = TimePoint::zero() + millis(401);
  cfg.crash_primary_at.push_back(millis(251));
  cfg.crash_backup_at.push_back(millis(451));
  cfg.add_standby_at.push_back(millis(601));
  return cfg;
}

class ExploreWorkload final : public Workload {
 public:
  ExploreWorkload(std::uint64_t input, bool tiny) : cfg_(explore_config(input, tiny)) {}

  Rep run(bool /*traced*/) override {
    Rep rep;
    const Clock::time_point t0 = Clock::now();
    // Set-up: the configuration plus one warm-up replay of the root
    // trajectory (all default decisions).
    const explore::ExploreConfig cfg = cfg_;
    (void)explore::run_trajectory(cfg, {});
    rep.setup_s = seconds_since(t0);

    const Scope scope;
    const Clock::time_point m0 = Clock::now();
    const explore::ExploreReport report = explore::explore(cfg);
    rep.run_s = seconds_since(m0);
    rep.allocs = scope.allocations();
    // The explorer keeps its services private: its unit of work is one
    // explored trajectory.
    rep.updates = report.trajectories;

    rep.attempted = report.trajectories;
    for (const explore::Counterexample& ce : report.counterexamples) {
      rep.failures.push_back("trajectory violates " + ce.oracle + ": " + ce.detail);
    }
    if (report.truncated > 0) {
      rep.failures.push_back(std::to_string(report.truncated) +
                             " trajectories truncated by the choice bound");
    }
    if (report.hit_trajectory_cap) rep.failures.push_back("trajectory cap hit");

    const Values counts{{"trajectories", static_cast<double>(report.trajectories)},
                        {"choice_points", static_cast<double>(report.choice_points)},
                        {"states", static_cast<double>(report.states_visited)},
                        {"pruned_visited", static_cast<double>(report.pruned_visited)},
                        {"pruned_sleep", static_cast<double>(report.pruned_sleep)},
                        {"truncated", static_cast<double>(report.truncated)},
                        {"counterexamples", static_cast<double>(report.counterexamples.size())}};
    for (const auto& [k, v] : counts) {
      rep.stats[k] = v;
      rep.layer["explore." + k] = v;
    }
    rep.layer.erase("explore.counterexamples");
    rep.layer["explore.us_per_trajectory"] =
        report.trajectories > 0 ? rep.run_s * 1e6 / static_cast<double>(report.trajectories)
                                : 0.0;
    return rep;
  }

  Values layer_probes(const Rep& /*untraced*/, const Rep& /*traced*/) override {
    Values v;
    v["explore.replay_us"] = probe_explore_replay_us(cfg_);
    const Cost kernel = probe_sim_kernel(64);
    v["sim.kernel_ns_per_event"] = kernel.ns;
    v["sim.kernel_allocs_per_event"] = kernel.allocs;
    return v;
  }

 private:
  explore::ExploreConfig cfg_;
};

}  // namespace

std::vector<std::string> scan_chaos_seeds(std::uint64_t count, bool tiny) {
  const chaos::ChaosOptions opts = chaos_options(tiny, true);
  std::vector<std::string> failures;
  for (std::uint64_t seed = 0; seed < count; ++seed) {
    const chaos::SeedReport r = chaos::run_seed(seed, opts);
    if (!r.ok()) failures.push_back(violation_line(r, opts));
  }
  return failures;
}

std::vector<std::string> workload_names() {
  return {"wide_group", "fanout_long", "parallel_groups", "chaos_observed",
          "explore_exhaustive"};
}

std::unique_ptr<Workload> make_workload(const Options& opts) {
  const bool tiny = opts.tiny;
  const std::uint64_t in = opts.input;
  if (opts.workload == "wide_group") {
    core::ServiceParams params;
    params.seed = input_seed(in, 2);
    params.backup_count = 2;
    set_link(params.link);
    set_wide_config(params.config);
    return std::make_unique<ServiceWorkload>(make_objects(in, tiny ? 32 : 256, 10, 25), params,
                                             millis(500), tiny ? millis(200) : seconds(1));
  }
  if (opts.workload == "fanout_long") {
    core::ServiceParams params;
    params.seed = input_seed(in, 2);
    params.backup_count = 8;
    set_link(params.link);
    // Fixed periods: only the link jitter stream depends on the input, so
    // the offered load is the same for every input set.
    std::vector<core::ObjectSpec> objects = make_objects(in, 8, 10, 10);
    for (std::size_t i = 0; i < objects.size(); ++i) {
      objects[i].client_period = millis(10 + static_cast<std::int64_t>(i));
    }
    return std::make_unique<ServiceWorkload>(std::move(objects), params, seconds(1),
                                             tiny ? seconds(5) : seconds(150));
  }
  if (opts.workload == "parallel_groups") {
    return std::make_unique<ParallelWorkload>(make_objects(in, tiny ? 32 : 256, 10, 25), in,
                                              tiny ? 8 : 64, 2, 2, millis(500),
                                              tiny ? millis(500) : seconds(5));
  }
  if (opts.workload == "chaos_observed") {
    // 20 shared seeds plus one per input set.
    return std::make_unique<ChaosWorkload>(in, tiny ? 1 : 20, 1, tiny, opts.known_failures);
  }
  if (opts.workload == "explore_exhaustive") {
    return std::make_unique<ExploreWorkload>(in, tiny);
  }
  return nullptr;
}

}  // namespace perfbench
