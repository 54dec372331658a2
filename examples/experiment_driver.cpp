// Config-driven experiment driver: define an RTPB scenario in a plain
// key = value file and run it without writing C++.
//
//   ./build/examples/example_experiment_driver my_experiment.conf
//   ./build/examples/example_experiment_driver            # built-in demo
//
// Recognised keys (defaults in brackets):
//   seed [1]                 objects [5]
//   client_period [10ms]     client_exec [0.2ms]     update_exec [1ms]
//   delta_primary [20ms]     delta_backup [100ms]    object_size [64]
//   update_loss [0.0]        link_loss [0.0]         link_jitter [0.2ms]
//   admission [true]         scheduling [normal|compressed]
//   policy [fifo|rm|edf|dcs] backup_count [1]        slack_factor [2]
//   duration [10s]           warmup [1s]
//   crash_primary_at [unset] add_standby_at [unset]
#include <cstdio>
#include <string>

#include "core/faults.hpp"
#include "core/rtpb.hpp"
#include "util/config.hpp"

using namespace rtpb;

namespace {

sched::Policy parse_policy(const std::string& name) {
  if (name == "rm") return sched::Policy::kRateMonotonic;
  if (name == "edf") return sched::Policy::kEdf;
  if (name == "dcs") return sched::Policy::kDcsSr;
  return sched::Policy::kFifo;
}

constexpr const char* kDemoConfig = R"(
# Built-in demo: five objects, 10% update loss, a primary crash at 6s and
# a standby recruited at 8s.
objects = 5
update_loss = 0.10
duration = 12s
crash_primary_at = 6s
add_standby_at = 8s
)";

}  // namespace

int main(int argc, char** argv) {
  Config config;
  if (argc > 1) {
    const auto loaded = Config::load(argv[1]);
    if (!loaded) {
      std::fprintf(stderr, "cannot read config file %s\n", argv[1]);
      return 1;
    }
    config = *loaded;
    std::printf("experiment: %s\n", argv[1]);
  } else {
    config = Config::parse(kDemoConfig);
    std::printf("experiment: built-in demo (pass a config file to customise)\n");
  }
  for (const auto& err : config.errors()) std::fprintf(stderr, "config: %s\n", err.c_str());

  core::ServiceParams params;
  params.seed = static_cast<std::uint64_t>(config.get_int("seed", 1));
  params.link.propagation = millis(1);
  params.link.jitter = config.get_duration("link_jitter", micros(200));
  params.link.loss_probability = config.get_double("link_loss", 0.0);
  params.config.update_loss_probability = config.get_double("update_loss", 0.0);
  params.config.admission_control_enabled = config.get_bool("admission", true);
  params.config.slack_factor = config.get_int("slack_factor", 2);
  params.config.update_scheduling = config.get_string("scheduling", "normal") == "compressed"
                                        ? core::UpdateScheduling::kCompressed
                                        : core::UpdateScheduling::kNormal;
  params.config.cpu_policy = parse_policy(config.get_string("policy", "fifo"));
  params.backup_count = static_cast<std::size_t>(config.get_int("backup_count", 1));

  core::RtpbService service(params);

  core::FaultPlan plan(service);
  const Duration crash_at = config.get_duration("crash_primary_at", Duration{-1});
  if (crash_at >= Duration::zero()) plan.crash_primary(TimePoint::zero() + crash_at);
  const Duration standby_at = config.get_duration("add_standby_at", Duration{-1});
  if (standby_at >= Duration::zero()) plan.add_standby(TimePoint::zero() + standby_at);
  plan.arm();

  service.start();

  const auto n = static_cast<core::ObjectId>(config.get_int("objects", 5));
  std::size_t accepted = 0;
  for (core::ObjectId id = 1; id <= n; ++id) {
    core::ObjectSpec spec;
    spec.id = id;
    spec.name = "obj" + std::to_string(id);
    spec.size_bytes = static_cast<std::uint32_t>(config.get_int("object_size", 64));
    spec.client_period = config.get_duration("client_period", millis(10));
    spec.client_exec = config.get_duration("client_exec", micros(200));
    spec.update_exec = config.get_duration("update_exec", millis(1));
    spec.delta_primary = config.get_duration("delta_primary", millis(20));
    spec.delta_backup = config.get_duration("delta_backup", millis(100));
    if (service.register_object(spec).ok()) ++accepted;
  }

  const auto unused = config.unused_keys();
  for (const auto& key : unused) {
    std::fprintf(stderr, "config: unknown key '%s' (typo?)\n", key.c_str());
  }

  service.warm_up(config.get_duration("warmup", seconds(1)));
  service.run_for(config.get_duration("duration", seconds(10)));
  service.finish();

  const core::Metrics& m = service.metrics();
  std::printf("\n-- results at t=%s --\n", service.simulator().now().to_string().c_str());
  std::printf("objects accepted          : %zu / %u\n", accepted, n);
  std::printf("acting primary            : node%u (%s)\n", service.acting_primary().node(),
              core::role_name(service.acting_primary().role()));
  std::printf("client responses          : %zu (mean %.3f ms, p99 %.3f ms)\n",
              m.response_times().count(), m.response_times().mean(),
              m.response_times().quantile(0.99));
  std::printf("updates sent / applied    : %llu / %llu\n",
              static_cast<unsigned long long>(service.primary().updates_sent() +
                                              service.backup().updates_sent()),
              static_cast<unsigned long long>(service.backup().updates_applied()));
  std::printf("avg max P/B distance      : %.3f ms\n", m.average_max_distance_ms());
  std::printf("window violations         : %llu (mean %.3f ms)\n",
              static_cast<unsigned long long>(m.inconsistency_intervals()),
              m.mean_inconsistency_duration_ms());
  for (const auto& label : plan.fired()) {
    std::printf("fault fired               : %s\n", label.c_str());
  }
  return 0;
}
