#include "chaos/harness.hpp"

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

}  // namespace rtpb::chaos
