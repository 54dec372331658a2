#include "chaos/harness.hpp"

#include <ostream>
#include <utility>

namespace rtpb::chaos {

SeedReport run_seed(std::uint64_t seed, const ChaosOptions& opts) {
  Experiment experiment(seed, opts);
  experiment.service().run_for(opts.duration);
  experiment.finish();
  SeedReport report = experiment.report();
  report.seed = seed;
  if (!report.ok()) report.reproducer = render_reproducer(generate_schedule(seed, opts), opts);
  return report;
}

SweepResult run_sweep(std::uint64_t first_seed, std::size_t count, const ChaosOptions& opts,
                      std::ostream* progress) {
  SweepResult result;
  for (std::size_t i = 0; i < count; ++i) {
    SeedReport report = run_seed(first_seed + i, opts);
    ++result.seeds_run;
    result.total_checks += report.oracle_checks;
    if (progress != nullptr) *progress << report.summary() << "\n";
    if (!report.ok()) {
      if (progress != nullptr) {
        for (const OracleViolation& v : report.violations) {
          *progress << "  [" << v.at.to_string() << "] " << v.oracle << ": " << v.detail
                    << "\n";
        }
        *progress << report.reproducer;
      }
      result.failures.push_back(std::move(report));
    }
  }
  return result;
}

}  // namespace rtpb::chaos
