// Scripted fault injection and chaos drills: loss storms, link
// degradation, crash + failover + recruitment — verifying the service
// degrades and recovers the way the paper's failure model promises.
#include "core/faults.hpp"

#include <gtest/gtest.h>

#include "sim/choice.hpp"

namespace rtpb::core {
namespace {

ObjectSpec make_spec(ObjectId id) {
  ObjectSpec s;
  s.id = id;
  s.name = "obj" + std::to_string(id);
  s.client_period = millis(10);
  s.client_exec = micros(200);
  s.update_exec = micros(200);
  s.delta_primary = millis(20);
  s.delta_backup = millis(100);
  return s;
}

ServiceParams make_params(std::uint64_t seed = 42) {
  ServiceParams p;
  p.seed = seed;
  p.link.propagation = millis(1);
  p.link.jitter = micros(200);
  return p;
}

TimePoint at(std::int64_t ms) { return TimePoint::zero() + millis(ms); }

TEST(FaultPlan, ActionsFireAtScheduledTimes) {
  RtpbService service(make_params());
  FaultPlan plan(service);
  std::vector<TimePoint> when;
  plan.at(at(100), "a", [&] { when.push_back(service.simulator().now()); });
  plan.at(at(300), "b", [&] { when.push_back(service.simulator().now()); });
  plan.arm();
  service.start();
  service.run_for(millis(500));
  ASSERT_EQ(plan.fired().size(), 2u);
  EXPECT_EQ(plan.fired()[0], "a");
  EXPECT_EQ(when[0], at(100));
  EXPECT_EQ(when[1], at(300));
}

TEST(FaultPlan, LossStormDegradesThenRecovers) {
  RtpbService service(make_params(7));
  FaultPlan plan(service);
  plan.loss_storm(at(5000), at(10000), 0.6);
  plan.arm();
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());

  // Healthy phase: no violations.
  service.warm_up(seconds(1));
  service.run_for(seconds(3));
  EXPECT_EQ(service.metrics().inconsistency_intervals(), 0u);

  // Storm phase: violations accumulate.
  service.run_for(seconds(7));  // covers 5s..10s storm
  const auto during = service.metrics().inconsistency_intervals();
  EXPECT_GT(during, 0u);

  // Recovery: a long quiet phase adds (almost) no new violations.
  service.run_for(seconds(10));
  service.finish();
  EXPECT_LE(service.metrics().inconsistency_intervals(), during + 1);
}

TEST(FaultPlan, LinkDegradationTriggersNacks) {
  ServiceParams params = make_params(11);
  params.config.ping_max_misses = 1000;  // ride through the degradation
  RtpbService service(params);
  FaultPlan plan(service);
  plan.link_degradation(at(2000), at(8000), 0.7);
  plan.arm();
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(12));
  EXPECT_GT(service.backup().retransmit_requests_sent(), 0u);
  // After the storm the backup converges again.
  const auto vp = service.primary().read(1)->version;
  const auto vb = service.backup().read(1)->version;
  EXPECT_GE(vb + 10, vp);
}

TEST(FaultPlan, FullDisasterDrill) {
  // Loss storm, then primary crash mid-storm, failover, then standby
  // recruitment — service must end healthy with replication flowing.
  RtpbService service(make_params(13));
  FaultPlan plan(service);
  plan.loss_storm(at(2000), at(6000), 0.3)
      .crash_primary(at(4000))
      .add_standby(at(7000));
  plan.arm();
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(12));

  ASSERT_EQ(plan.fired().size(), 4u);
  EXPECT_EQ(service.backup().role(), Role::kPrimary);
  EXPECT_TRUE(service.backup_client().active());

  // The recruited standby holds the object and keeps receiving updates
  // from the promoted primary.
  service.run_for(seconds(2));
  ASSERT_NE(service.standby(), nullptr);
  ASSERT_TRUE(service.standby()->store().contains(1));
  const auto v1 = service.standby()->read(1)->version;
  EXPECT_GT(v1, 0u);
  service.run_for(seconds(2));
  EXPECT_GT(service.standby()->read(1)->version, v1);
}

TEST(FaultPlan, BackupCrashStopsReplicationButNotService) {
  RtpbService service(make_params(17));
  FaultPlan plan(service);
  plan.crash_backup(at(3000));
  plan.arm();
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(8));
  // Primary detected the dead backup and cancelled update events (§4.4).
  const auto sent = service.primary().updates_sent();
  service.run_for(seconds(2));
  EXPECT_EQ(service.primary().updates_sent(), sent);
  // Clients are still served.
  const auto v = service.primary().read(1)->version;
  service.run_for(seconds(1));
  EXPECT_GT(service.primary().read(1)->version, v);
}

/// Says yes to every fault candidate; every other decision keeps the
/// default strategy's draw.
class YesToFaults final : public sim::ChoicePolicy {
 public:
  bool decide(const sim::ChoiceContext& ctx, Rng& rng) override {
    return ctx.kind == sim::ChoiceKind::kFault || rng.bernoulli(ctx.probability);
  }
};

// Characterisation: one plan holding every verb and every explorer
// candidate kind fires exactly these labels, in virtual-time order with
// insertion order breaking ties (loss-storm-end before burst-loss-start
// at 300 ms).
TEST(FaultPlan, EveryVerbAndCandidateFiresItsLabelsInOrder) {
  ServiceParams params = make_params(23);
  params.backup_count = 2;
  params.durable = true;
  RtpbService service(params);
  YesToFaults yes;
  service.simulator().set_choice_policy(&yes);
  FaultPlan plan(service);
  plan.loss_storm(at(100), at(300), 0.5)
      .link_degradation(at(150), at(350), 0.2)
      .duplication_burst(at(200), at(400), 0.3)
      .reorder_burst(at(250), at(450), 0.4, millis(2))
      .burst_loss(at(300), at(500), 0.02, 4)
      .corruption_burst(at(350), at(550), 0.1)
      .cpu_spike(at(400), at(600), 0.5)
      .throttle_bandwidth(at(450), at(650), 0.5)
      .inflate_latency(at(500), at(700), millis(3))
      .tear_wal_tail(at(600), 1, 64)
      .crash_primary(at(800))
      .add_standby(at(1500))
      .crash_backup(at(2000))
      .crash_restart_primary(at(2500), at(3000))
      .crash_restart_backup(at(2600), at(3100))
      .partition_primary(at(3500));
  plan.add({.kind = FaultKind::kCrashPrimary, .at = at(4000), .until = at(4000), .candidate = true})
      .add({.kind = FaultKind::kCrashBackup, .at = at(4100), .until = at(4100), .candidate = true})
      .add({.kind = FaultKind::kAddStandby, .at = at(4200), .until = at(4200), .candidate = true})
      .add({.kind = FaultKind::kPartitionPrimary, .at = at(4300), .until = at(4300),
            .candidate = true})
      .add({.kind = FaultKind::kCrashRestartPrimary, .at = at(4400), .until = at(4700),
            .candidate = true})
      .add({.kind = FaultKind::kCrashRestartBackup, .at = at(4500), .until = at(4800),
            .candidate = true});
  plan.arm();
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(6));
  service.simulator().set_choice_policy(nullptr);

  const std::vector<std::string> want = {
      "loss-storm-start",
      "link-degradation-start",
      "dup-burst-start",
      "reorder-burst-start",
      "loss-storm-end",
      "burst-loss-start",
      "link-degradation-end",
      "corruption-start",
      "dup-burst-end",
      "cpu-spike-start",
      "reorder-burst-end",
      "throttle-bandwidth-start",
      "burst-loss-end",
      "inflate-latency-start",
      "corruption-end",
      "cpu-spike-end",
      "tear-wal-tail(replica=1,bytes=64)",
      "throttle-bandwidth-end",
      "inflate-latency-end",
      "crash-primary",
      "add-standby",
      "crash-backup",
      "crash-restart-primary",
      "crash-restart-backup",
      "restart-primary",
      "restart-backup",
      "partition-primary",
      "maybe-crash-primary",
      "maybe-crash-backup",
      "maybe-add-standby",
      "maybe-partition-primary",
      "maybe-crash-restart-primary",
      "maybe-crash-restart-backup",
      "maybe-restart-primary",
      "maybe-restart-backup",
  };
  EXPECT_EQ(plan.fired(), want);
}

TEST(FaultPlan, KindNamesRoundTripAndUnknownNamesAreRejected) {
  for (std::size_t i = 0; i < kFaultKinds; ++i) {
    const auto kind = static_cast<FaultKind>(i);
    EXPECT_EQ(fault_kind_from_name(fault_kind_name(kind)), kind) << fault_kind_name(kind);
  }
  EXPECT_FALSE(fault_kind_from_name("set-cpu-on-fire").has_value());
  EXPECT_FALSE(fault_kind_from_name("drop-frame").has_value());
  EXPECT_FALSE(fault_kind_from_name("crash-primary ").has_value());
  EXPECT_FALSE(fault_kind_from_name("").has_value());
}

}  // namespace
}  // namespace rtpb::core
