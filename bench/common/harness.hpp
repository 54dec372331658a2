// Shared harness for the figure-reproduction benches: a standard workload
// factory, a one-shot experiment runner, and aligned table printing.
// Every bench binary sweeps one experiment axis and prints the series the
// corresponding paper figure plots.
#pragma once

#include <string>
#include <vector>

#include "core/rtpb.hpp"

namespace rtpb::bench {

/// One experiment cell: a fully-specified service + workload.
struct ExperimentSpec {
  std::uint64_t seed = 1;

  // Workload.
  std::size_t objects = 5;
  Duration client_period = millis(10);
  Duration client_exec = micros(200);
  Duration update_exec = millis(1);
  Duration delta_primary = millis(20);  ///< δ_iP; δ_iB = δ_iP + window
  Duration window = millis(80);

  // Faults.
  double update_loss = 0.0;

  // Service configuration.
  bool admission_control = true;
  core::UpdateScheduling scheduling = core::UpdateScheduling::kNormal;
  sched::Policy policy = sched::Policy::kFifo;  ///< IPC-queue service model
  double compressed_target_utilization = 0.5;

  // Run length.
  Duration warmup = seconds(1);
  Duration duration = seconds(10);
};

/// Aggregated outcome of one experiment cell.
struct RunResult {
  std::size_t accepted = 0;
  double mean_response_ms = 0.0;
  double p90_response_ms = 0.0;
  double avg_max_distance_ms = 0.0;
  double avg_max_excess_distance_ms = 0.0;
  double mean_inconsistency_ms = 0.0;
  double total_inconsistency_ms = 0.0;
  std::uint64_t violations = 0;
  std::uint64_t updates_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t nacks = 0;
  std::uint64_t deadline_misses = 0;
};

/// Build the service, register `spec.objects` objects, run, and collect.
[[nodiscard]] RunResult run_experiment(const ExperimentSpec& spec);

/// Run `replications` seeds (spec.seed, +1000, +2000, …) and average the
/// scalar metrics — the stochastic figures (8, 11, 12) report these.
[[nodiscard]] RunResult run_experiment_avg(ExperimentSpec spec, std::size_t replications = 3);

/// Flat machine-readable metrics: an ordered key→value list serialised as
///   {"name": "...", "metrics": {"key": value, ...}, "host": {...}}
/// where "host" records hardware_concurrency, cpu_model, compiler and
/// build_type.
/// This is the `BENCH_*.json` format tools/bench_report compares across
/// builds; keep keys stable so baselines stay comparable.
class JsonMetrics {
 public:
  explicit JsonMetrics(std::string name) : name_(std::move(name)) {}
  void add(std::string key, double value) { metrics_.emplace_back(std::move(key), value); }
  /// Write to `path`; returns false (and prints a warning) on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
};

/// Column-aligned table printing.
class Table {
 public:
  explicit Table(std::vector<std::string> columns) : columns_(std::move(columns)) {}
  /// Name the sweep for machine-readable export (see print()).
  void set_name(std::string name) { name_ = std::move(name); }
  void add_row(std::vector<double> row) { rows_.push_back(std::move(row)); }
  /// Prints the table; additionally, when RTPB_BENCH_JSON=<path> is set,
  /// writes the rows as JsonMetrics keyed "<col0>=<v0>.<col>" per cell.
  void print() const;

 private:
  std::string name_ = "bench";
  std::vector<std::string> columns_;
  std::vector<std::vector<double>> rows_;
};

/// Standard bench banner: what figure this reproduces and what to look for.
void banner(const std::string& figure, const std::string& claim);

}  // namespace rtpb::bench
