// perfbench — the repository benchmark binary.  perfbench/run.py builds and
// drives it; run directly as
//
//   perfbench --workload NAME --input I [--seconds S] [--trace 0|1]
//             [--tiny] [--reps N] [--known-failures a,b,...]
//   perfbench --chaos-scan N [--tiny]
//
// It prints one JSON object on stdout: the host block, the metrics (the
// end-to-end set, or the per-layer set with --trace 1), the pinned
// simulated statistics and every failed check by name.  run.py compares
// the statistics against perfbench/pins.json.  --chaos-scan prints the
// chaos seeds below N that fail today, for recording as known failures.
#include <sys/resource.h>

#include <cmath>
#include <map>
#include <queue>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench.hpp"
#include "probes.hpp"
#include "util/log.hpp"

namespace perfbench {
namespace {

const std::vector<std::string> kLayerMetrics = {
    "sim.events", "sim.pending_p50", "sim.pending_max", "sim.kernel_ns_per_event",
    "sim.kernel_allocs_per_event",
    "sched.tasks", "sched.jobs", "sched.busy_fraction", "sched.deadline_misses",
    "sched.ns_per_job",
    "core.updates", "core.frames_per_update", "core.retransmissions", "core.nacks",
    "core.updates_shed", "core.qos_downgrades", "core.resync_deltas", "core.resync_fulls",
    "core.response_samples_retained", "core.wire_encode_ns", "core.wire_decode_ns",
    "core.wire_allocs_per_frame", "core.register_us",
    "xkernel.ns_per_frame", "xkernel.allocs_per_frame", "xkernel.checksum_failures",
    "net.frames", "net.drop_share", "net.delay_samples_retained", "net.ns_per_frame",
    "store.wal_appends", "store.checkpoints", "store.recoveries", "store.log_write_ns",
    "store.checkpoint_us", "store.recover_us",
    "telemetry.spans_per_seed", "telemetry.flight_events_per_seed", "telemetry.overhead_ratio",
    "chaos.oracle_checks", "chaos.violations", "chaos.faults_fired", "chaos.schedule_us",
    "explore.trajectories", "explore.choice_points", "explore.states", "explore.pruned_visited",
    "explore.pruned_sleep", "explore.truncated", "explore.us_per_trajectory",
    "explore.replay_us",
    "psim.windows", "psim.barriers", "psim.frontier_records", "psim.busy_share",
    "psim.barrier_wait_ms", "psim.speedup_t2",
    "response_p50_ms", "response_p99_ms", "response_samples", "avg_max_distance_ms",
    "inconsistency_ms", "failed_share",
    "sim.run_share", "sched.run_share", "core.wire_run_share", "xkernel.run_share",
    "net.run_share", "unattributed_share", "trace_overhead_ratio"};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_object(const Values& values) {
  std::string out = "{";
  for (const auto& [k, v] : values) {
    if (out.size() > 1) out += ",";
    out += json_string(k) + ":" + json_number(v);
  }
  return out + "}";
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& s : items) {
    if (out.size() > 1) out += ",";
    out += json_string(s);
  }
  return out + "]";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string host_block(const Options& opts) {
  return "{\"hardware_concurrency\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"cpu_model\":" + json_string(cpu_model()) +
         ",\"compiler\":" + json_string(std::string("g++ ") + __VERSION__) +
         ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
         ",\"threads\":" + (opts.workload == "parallel_groups" ? "2" : "1") + "}";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double get(const Values& v, const std::string& key) {
  const auto it = v.find(key);
  return it == v.end() ? 0.0 : it->second;
}

/// Split the untraced run's host time across layers: each layer's self
/// cost per operation (its probe minus the probes of the layers below it)
/// times the run's operation count, as a share of `run_s` (of `run_s` ×
/// threads for the parallel engine).  What the shares leave over is
/// `unattributed_share`.
void attribute(Values& l, double run_s) {
  const double kernel = get(l, "sim.kernel_ns_per_event");
  const double sched_self = get(l, "sched.ns_per_job") - get(l, "_sched_events_per_job") * kernel;
  const double net_self = get(l, "net.ns_per_frame") - get(l, "_net_events_per_frame") * kernel;
  const double xkernel_self = get(l, "xkernel.ns_per_frame") - get(l, "net.ns_per_frame");
  const double frames = get(l, "_update_frames");
  const double capacity_ns = run_s * std::max(1.0, get(l, "_threads")) * 1e9;
  if (capacity_ns <= 0) return;
  const Values shares = {
      {"sim.run_share", get(l, "sim.events") * kernel / capacity_ns},
      {"sched.run_share", get(l, "sched.jobs") * sched_self / capacity_ns},
      {"core.wire_run_share", frames * (get(l, "core.wire_encode_ns") +
                                        get(l, "_peers") * get(l, "core.wire_decode_ns")) /
                                  capacity_ns},
      {"xkernel.run_share", get(l, "net.frames") * xkernel_self / capacity_ns},
      {"net.run_share", get(l, "net.frames") * net_self / capacity_ns}};
  double attributed = 0.0;
  for (const auto& [name, share] : shares) {
    l[name] = share;
    attributed += share;
  }
  l["unattributed_share"] = 1.0 - attributed;
}

/// Named failures for every statistic that differs between two runs of
/// the same inputs.
void compare_stats(const Values& expected, const Values& actual, const std::string& what,
                   std::vector<std::string>& failures) {
  for (const auto& [k, v] : expected) {
    const auto it = actual.find(k);
    if (it == actual.end() || it->second != v) {
      failures.push_back(what + " changed statistic " + k + ": " + json_number(v) + " -> " +
                         (it == actual.end() ? std::string("missing") : json_number(it->second)));
    }
  }
}

// Host-speed reference.  The benchmark hosts this was tuned on change speed
// by up to 2x over tens of seconds (a pure ALU loop too), which no number
// of repetitions averages out.  Every repetition is therefore bracketed by
// a fixed, library-independent loop with a simulation-like mix (a binary
// heap, an ordered map, small allocations), and the end-to-end host times
// are reported scaled to the speed at which that loop takes
// kReferenceSeconds.  Raw times are printed next to the result.
constexpr double kReferenceSeconds = 0.045;

volatile std::uint64_t g_reference_sink = 0;

double reference_seconds() {
  const Clock::time_point t0 = Clock::now();
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
  std::map<std::uint32_t, std::string> table;
  std::uint64_t x = 88172645463325252ULL;  // xorshift64 state
  for (int i = 0; i < 200000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push(x & 0xffffffffULL);
    if (heap.size() > 2048) heap.pop();
    table[static_cast<std::uint32_t>(x % 4096)].assign(24 + (x & 31), 'a');
  }
  g_reference_sink = heap.top() + table.size();
  return seconds_since(t0);
}

int run(const Options& opts) {
  std::unique_ptr<Workload> workload = make_workload(opts);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", opts.workload.c_str());
    return 2;
  }
  // The first repetition warms the process up (allocator arenas, page
  // faults, caches) and is reported only when it is the only one asked for.
  // references[i] and references[i + 1] bracket reps[i].
  std::vector<Rep> reps;
  std::vector<double> references{reference_seconds()};
  const Clock::time_point start = Clock::now();
  Rep warm = workload->run(false);
  references.push_back(reference_seconds());
  if (opts.reps == 1) {
    reps.push_back(std::move(warm));
  } else {
    references.erase(references.begin());
  }
  const auto more = [&] {
    if (opts.reps > 0) return static_cast<int>(reps.size()) < opts.reps;
    const std::size_t wanted = opts.trace ? 1 : 3;
    return reps.size() < wanted || (!opts.trace && seconds_since(start) < opts.seconds);
  };
  while (more()) {
    reps.push_back(workload->run(false));
    references.push_back(reference_seconds());
  }

  const Rep& first = reps.front();
  std::vector<std::string> failures = first.failures;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    compare_stats(first.stats, reps[i].stats, "repetition " + std::to_string(i), failures);
  }

  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> ns_per_update;
  std::vector<double> allocs_per_update;
  std::vector<double> raw_setup_s;
  std::vector<double> raw_run_s;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    const double reference = 0.5 * (references[i] + references[i + 1]);
    const double scale = kReferenceSeconds / reference;
    std::fprintf(stderr,
                 "%s: setup %.6f s, run %.6f s, reference %.6f s, %llu updates, %llu allocs\n",
                 opts.workload.c_str(), r.setup_s, r.run_s, reference,
                 static_cast<unsigned long long>(r.updates),
                 static_cast<unsigned long long>(r.allocs));
    raw_setup_s.push_back(r.setup_s);
    raw_run_s.push_back(r.run_s);
    setup_s.push_back(r.setup_s * scale);
    run_s.push_back(r.run_s * scale);
    const auto updates = static_cast<double>(std::max<std::uint64_t>(r.updates, 1));
    ns_per_update.push_back(r.run_s * scale * 1e9 / updates);
    allocs_per_update.push_back(static_cast<double>(r.allocs) / updates);
  }

  Values metrics;
  Values raw;
  if (!opts.trace) {
    metrics["setup_s"] = median(setup_s);
    metrics["run_s"] = median(run_s);
    metrics["ns_per_update"] = median(ns_per_update);
    metrics["allocs_per_update"] = median(allocs_per_update);
    metrics["peak_rss_mb"] = peak_rss_mb();
    raw["setup_s"] = median(raw_setup_s);
    raw["run_s"] = median(raw_run_s);
    raw["reference_s"] = median(references);
  }

  const std::vector<std::string> known = workload->replay_known_failures();
  std::size_t known_failing = 0;
  for (const std::string& line : known) {
    if (line.find(" ok ") == std::string::npos) ++known_failing;
  }

  if (opts.trace) {
    const Rep traced = workload->run(true);
    compare_stats(first.stats, traced.stats, "traced run", failures);
    Values layer = traced.layer;
    for (const auto& [k, v] : workload->layer_probes(first, traced)) layer[k] = v;
    layer["failed_share"] =
        static_cast<double>(first.failures.size() + known_failing) /
        static_cast<double>(std::max<std::uint64_t>(first.attempted + known.size(), 1));
    attribute(layer, first.run_s);
    layer["trace_overhead_ratio"] = first.run_s > 0 ? traced.run_s / first.run_s : 0.0;
    for (const std::string& name : kLayerMetrics) metrics[name] = get(layer, name);
  }

  std::printf(
      "{\"workload\":%s,\"input\":%llu,\"reps\":%zu,\"attempted\":%llu,\"failures\":%s,"
      "\"known_failures\":%s,\"host\":%s,\"metrics\":%s,\"raw\":%s,\"stats\":%s}\n",
      json_string(opts.workload).c_str(), static_cast<unsigned long long>(opts.input),
      reps.size(), static_cast<unsigned long long>(first.attempted),
      json_list(failures).c_str(), json_list(known).c_str(), host_block(opts).c_str(),
      json_object(metrics).c_str(), json_object(raw).c_str(), json_object(first.stats).c_str());
  return 0;
}

}  // namespace


}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::uint64_t chaos_scan = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opts.workload = next();
    } else if (arg == "--input") {
      opts.input = std::strtoull(next().c_str(), nullptr, 10) % perfbench::kInputSets;
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = next() == "1";
    } else if (arg == "--tiny") {
      opts.tiny = true;
    } else if (arg == "--reps") {
      opts.reps = std::atoi(next().c_str());
    } else if (arg == "--chaos-scan") {
      chaos_scan = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--known-failures") {
      const std::string list = next();
      for (std::size_t at = 0; at < list.size();) {
        const std::size_t comma = list.find(',', at);
        const std::string item = list.substr(at, comma == std::string::npos ? comma : comma - at);
        if (!item.empty()) opts.known_failures.push_back(std::strtoull(item.c_str(), nullptr, 10));
        if (comma == std::string::npos) break;
        at = comma + 1;
      }
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    }
  }
  // Thousands of services start and crash: keep their WARN lines out of
  // the result stream.
  rtpb::Logger::instance().set_level(rtpb::LogLevel::kError);
  if (chaos_scan > 0) {
    std::printf("{\"failures\":%s}\n",
                perfbench::json_list(perfbench::scan_chaos_seeds(chaos_scan, opts.tiny)).c_str());
    return 0;
  }
  return perfbench::run(opts);
}
