#include "sched/generator.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace rtpb::sched {

std::vector<double> uunifast(Rng& rng, std::size_t n, double total_utilization) {
  RTPB_EXPECTS(n > 0);
  RTPB_EXPECTS(total_utilization > 0.0);
  std::vector<double> utils(n);
  double remaining = total_utilization;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double next =
        remaining * std::pow(rng.next_double(), 1.0 / static_cast<double>(n - 1 - i));
    utils[i] = remaining - next;
    remaining = next;
  }
  utils[n - 1] = remaining;
  return utils;
}

TaskSet generate_task_set(Rng& rng, const GeneratorParams& params) {
  RTPB_EXPECTS(params.tasks > 0);
  RTPB_EXPECTS(params.min_period > Duration::zero());
  RTPB_EXPECTS(params.max_period >= params.min_period);

  const std::vector<double> utils = uunifast(rng, params.tasks, params.total_utilization);
  TaskSet set;
  set.reserve(params.tasks);
  const double log_lo = std::log(static_cast<double>(params.min_period.nanos()));
  const double log_hi = std::log(static_cast<double>(params.max_period.nanos()));
  for (std::size_t i = 0; i < params.tasks; ++i) {
    TaskSpec t;
    t.id = static_cast<TaskId>(i + 1);
    // Not "t" + to_string(): g++ 12 -O3 flags that with a false -Wrestrict.
    t.name = std::string("t").append(std::to_string(i + 1));
    const double log_p = rng.uniform_real(log_lo, log_hi);
    t.period = Duration{static_cast<std::int64_t>(std::exp(log_p))};
    t.wcet = std::max(params.min_wcet, t.period.scaled(utils[i]));
    t.wcet = std::min(t.wcet, t.period);  // keep the spec valid
    set.push_back(t);
  }
  return set;
}

}  // namespace rtpb::sched
