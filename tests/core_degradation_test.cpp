// Graceful-degradation measurement core: Jacobson RTT estimation,
// exponential backoff with seeded jitter, the overload detector's trigger
// paths and hysteresis — plus the server-level plumbing that consumes
// them (derived and adaptive ack timeouts, the state-transfer retry cap).
#include "core/degradation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/rtpb.hpp"
#include "protocol_facts.hpp"

namespace rtpb::core {
namespace {

// ---------------------------------------------------------------------------
// RttEstimator: RFC 6298 arithmetic, exactly.
// ---------------------------------------------------------------------------

TEST(RttEstimator, FirstSampleInitialisesBothEstimators) {
  RttEstimator est;
  EXPECT_FALSE(est.has_sample());
  EXPECT_EQ(est.rto(), Duration::zero());

  est.sample(millis(10));
  ASSERT_TRUE(est.has_sample());
  EXPECT_EQ(est.samples(), 1u);
  EXPECT_EQ(est.srtt(), millis(10));        // SRTT = R
  EXPECT_EQ(est.rttvar(), millis(5));       // RTTVAR = R/2
  EXPECT_EQ(est.rto(), millis(30));         // SRTT + 4·RTTVAR
}

TEST(RttEstimator, EwmaGainsMatchJacobson) {
  RttEstimator est;
  est.sample(millis(10));
  est.sample(millis(20));
  // RTTVAR' = 3/4·5ms + 1/4·|10−20|ms = 6.25 ms (integer nanos: exact).
  EXPECT_EQ(est.rttvar(), micros(6250));
  // SRTT' = 7/8·10ms + 1/8·20ms = 11.25 ms.
  EXPECT_EQ(est.srtt(), micros(11250));
  EXPECT_EQ(est.rto(), micros(11250) + micros(6250) * 4);
}

TEST(RttEstimator, ConvergesToSteadyRttAndSpikeWidensRto) {
  RttEstimator est;
  for (int i = 0; i < 200; ++i) est.sample(millis(4));
  // Steady input: SRTT converges to the input, variance decays to ~0.
  EXPECT_LE((est.srtt() - millis(4)).abs(), micros(50));
  EXPECT_LE(est.rttvar(), micros(50));
  const Duration calm_rto = est.rto();

  est.sample(millis(40));  // one queueing spike
  EXPECT_GT(est.rto(), calm_rto) << "a spike must widen the timeout";
  EXPECT_GT(est.rttvar(), millis(1));
}

TEST(RttEstimator, ResetForgetsEverythingAndIgnoresNegatives) {
  RttEstimator est;
  est.sample(millis(10));
  est.reset();
  EXPECT_FALSE(est.has_sample());
  EXPECT_EQ(est.srtt(), Duration::zero());
  EXPECT_EQ(est.rto(), Duration::zero());

  est.sample(Duration::zero() - millis(1));  // clock skew artefact
  EXPECT_FALSE(est.has_sample());
}

// ---------------------------------------------------------------------------
// BackoffPolicy: exponential ladder, cap, seeded jitter.
// ---------------------------------------------------------------------------

TEST(BackoffPolicy, ExponentialLadderWithoutJitterIsExact) {
  BackoffPolicy backoff({millis(100), millis(1000), /*jitter=*/0.0});
  Rng rng{7};
  EXPECT_EQ(backoff.next(rng), millis(100));
  EXPECT_EQ(backoff.next(rng), millis(200));
  EXPECT_EQ(backoff.next(rng), millis(400));
  EXPECT_EQ(backoff.next(rng), millis(800));
  EXPECT_EQ(backoff.next(rng), millis(1000)) << "cap binds from level 4 on";
  EXPECT_EQ(backoff.next(rng), millis(1000));
  EXPECT_EQ(backoff.level(), 6u);

  backoff.reset();
  EXPECT_EQ(backoff.level(), 0u);
  EXPECT_EQ(backoff.next(rng), millis(100));
}

TEST(BackoffPolicy, JitterIsSeededDeterministicAndBounded) {
  const BackoffPolicy::Params params{millis(100), millis(10000), 0.25};
  BackoffPolicy a(params);
  BackoffPolicy b(params);
  Rng rng_a{42};
  Rng rng_b{42};
  std::set<Duration> distinct;
  for (int i = 0; i < 8; ++i) {
    const Duration da = a.next(rng_a);
    const Duration db = b.next(rng_b);
    EXPECT_EQ(da, db) << "same seed must draw the same jitter at step " << i;
    const Duration nominal = std::min(millis(100) * (std::int64_t{1} << i), millis(10000));
    EXPECT_GE(da, nominal.scaled(0.75));
    EXPECT_LE(da, nominal.scaled(1.25));
    distinct.insert(da);
  }
  EXPECT_GT(distinct.size(), 1u) << "jitter should actually perturb the ladder";
}

TEST(BackoffPolicy, LevelSaturatesInsteadOfOverflowing) {
  BackoffPolicy backoff({nanos(1), Duration::zero(), 0.0});  // no cap
  Rng rng{1};
  Duration last{};
  for (int i = 0; i < 40; ++i) last = backoff.next(rng);
  EXPECT_EQ(backoff.level(), 16u) << "shift saturates at 2^16";
  EXPECT_EQ(last, nanos(1) * (std::int64_t{1} << 16));
}

// ---------------------------------------------------------------------------
// DegradationController: three trigger paths, hold-based hysteresis.
// ---------------------------------------------------------------------------

DegradationController::Params controller_params() {
  DegradationController::Params p;
  p.rtt_baseline = millis(2);  // 2ℓ
  p.rtt_factor = 4.0;
  p.queue_depth = 16;
  p.overload_hold = millis(200);
  return p;
}

TEST(DegradationController, QuiescentControllerReportsCalmForever) {
  DegradationController ctl(controller_params());
  const TimePoint t = TimePoint::zero() + seconds(1);
  EXPECT_FALSE(ctl.overloaded(t));
  EXPECT_EQ(ctl.calm_for(t), Duration::max());
  EXPECT_EQ(ctl.triggers(), 0u);
}

TEST(DegradationController, SmoothedRttAboveFactorTimesBaselineTrips) {
  DegradationController ctl(controller_params());
  const TimePoint t0 = TimePoint::zero() + millis(10);
  // Below 4 × 2 ms: healthy.
  ctl.on_rtt_sample(t0, millis(5));
  EXPECT_FALSE(ctl.overloaded(t0));
  // One huge sample pushes SRTT past 8 ms (EWMA: it takes more than one).
  TimePoint t = t0;
  while (!ctl.overloaded(t)) {
    ASSERT_LT(t, t0 + seconds(1)) << "RTT trigger never tripped";
    t = t + millis(1);
    ctl.on_rtt_sample(t, millis(80));
  }
  EXPECT_GT(ctl.triggers(), 0u);
  EXPECT_GT(ctl.rtt().srtt(), millis(8));
}

TEST(DegradationController, QueueDepthAndMissedWindowTrip) {
  {
    DegradationController ctl(controller_params());
    const TimePoint t = TimePoint::zero() + millis(10);
    ctl.on_queue_depth(t, 16);  // at the threshold: not over it
    EXPECT_FALSE(ctl.overloaded(t));
    ctl.on_queue_depth(t, 17);
    EXPECT_TRUE(ctl.overloaded(t));
  }
  {
    DegradationController ctl(controller_params());
    const TimePoint t = TimePoint::zero() + millis(10);
    ctl.on_missed_window(t);
    EXPECT_TRUE(ctl.overloaded(t));
    EXPECT_EQ(ctl.missed_windows(), 1u);
  }
}

TEST(DegradationController, OverloadClearsOnlyAfterHoldElapses) {
  DegradationController ctl(controller_params());
  const TimePoint t0 = TimePoint::zero() + millis(10);
  ctl.on_missed_window(t0);
  EXPECT_TRUE(ctl.overloaded(t0 + millis(200)));   // inside the hold
  EXPECT_FALSE(ctl.overloaded(t0 + millis(201)));  // hold expired
  EXPECT_EQ(ctl.calm_for(t0 + millis(300)), millis(300));

  // A re-trigger restarts the calm clock.
  ctl.on_queue_depth(t0 + millis(300), 100);
  EXPECT_TRUE(ctl.overloaded(t0 + millis(300)));
  EXPECT_EQ(ctl.calm_for(t0 + millis(350)), millis(50));

  ctl.reset();
  EXPECT_FALSE(ctl.overloaded(t0 + millis(350)));
  EXPECT_EQ(ctl.calm_for(t0 + millis(350)), Duration::max());
  EXPECT_EQ(ctl.missed_windows(), 0u);
}

// ---------------------------------------------------------------------------
// Server plumbing: derived / pinned / adaptive ack timeouts, retry cap.
// ---------------------------------------------------------------------------

ObjectSpec make_spec(ObjectId id) {
  ObjectSpec s;
  s.id = id;
  s.name = "obj" + std::to_string(id);
  s.size_bytes = 64;
  s.client_period = millis(10);
  s.client_exec = micros(200);
  s.update_exec = micros(200);
  s.delta_primary = millis(20);
  s.delta_backup = millis(100);
  return s;
}

ServiceParams make_params(std::uint64_t seed, std::size_t backups = 1) {
  ServiceParams p;
  p.seed = seed;
  p.link.propagation = millis(1);
  p.link.jitter = micros(200);
  p.backup_count = backups;
  return p;
}

TEST(AdaptiveTimeouts, ZeroConfigTimeoutDerivesFromTheLink) {
  ServiceParams params = make_params(101);
  params.config.adaptive_timeouts = false;  // isolate the derived path
  ASSERT_EQ(params.config.ping_ack_timeout, Duration{});  // zero sentinel
  RtpbService service(params);
  service.start();
  service.run_for(millis(50));

  const FailureDetector* det = service.primary().detector(service.backup().node());
  ASSERT_NE(det, nullptr);
  // clamp(4ℓ, 5 ms, ping_period): with ℓ ≈ 1.2 ms + tx this lands well
  // below the old fixed 50 ms default and at or above the 5 ms floor.
  EXPECT_GE(det->ack_timeout(), millis(5));
  EXPECT_LE(det->ack_timeout(), params.config.ping_period);
  EXPECT_LT(det->ack_timeout(), millis(50))
      << "derived timeout should track the (fast) link, not the old default";
}

TEST(AdaptiveTimeouts, NonZeroConfigTimeoutIsPinned) {
  ServiceParams params = make_params(102);
  params.config.adaptive_timeouts = false;
  params.config.ping_ack_timeout = millis(37);
  RtpbService service(params);
  service.start();
  service.run_for(millis(50));

  const FailureDetector* det = service.primary().detector(service.backup().node());
  ASSERT_NE(det, nullptr);
  EXPECT_EQ(det->ack_timeout(), millis(37));
}

TEST(AdaptiveTimeouts, JacobsonRtoDrivesTheDetectorOnceSampled) {
  RtpbService service(make_params(103));
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(2));

  const ReplicaServer& primary = service.primary();
  ASSERT_NE(primary.degradation(), nullptr);
  EXPECT_TRUE(primary.degradation()->rtt().has_sample())
      << "ping acks must feed the estimator";

  const FailureDetector* det = primary.detector(service.backup().node());
  ASSERT_NE(det, nullptr);
  // On a ~2.4 ms RTT link the RTO is tiny; the adaptive clamp floors it at
  // 5 ms and it must stay far under the 100 ms ping period.
  EXPECT_GE(det->ack_timeout(), millis(5));
  EXPECT_LE(det->ack_timeout(), millis(10));
}

TEST(TransferRetry, BackoffLadderCapsAndSuspectsTheSilentPeer) {
  ServiceParams params = make_params(104);
  params.config.ping_max_misses = 1000000;   // heartbeat never declares
  params.config.transfer_retry_limit = 3;    // short ladder for the test
  RtpbService service(params);
  telemetry::Hub& hub = service.simulator().telemetry();
  hub.enable();
  service.start();
  service.run_for(millis(50));

  // Black-hole the replication link *after* start so heartbeats began,
  // then register: the registration state transfer can never be acked.
  const net::NodeId p = service.primary().node();
  const net::NodeId b = service.backup().node();
  service.network().set_loss_probability(p, b, 1.0);
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());

  service.run_for(seconds(8));  // ladder ≈ 0.2 + 0.4 + 0.8 s (× jitter)

  EXPECT_GE(service.primary().transfer_give_ups(), 1u);
  EXPECT_TRUE(service.primary().peers().empty())
      << "the silent peer must be suspected down and removed";
  EXPECT_EQ(facts::counter(hub, "core.degrade.transfer_give_ups"),
            facts::sum(service, &ReplicaServer::transfer_give_ups));
  // Each give-up suspects the silent peer through the heartbeat's path.
  EXPECT_EQ(facts::peer_events(hub, "dead-peer", b), service.primary().transfer_give_ups());
  EXPECT_EQ(facts::counter(hub, "core.primary.dead_peers"), facts::events(hub, "dead-peer"));
}

TEST(TransferRetry, HealthyTransferNeverHitsTheCap) {
  ServiceParams params = make_params(105);
  params.config.transfer_retry_limit = 3;
  RtpbService service(params);
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(2));
  EXPECT_EQ(service.primary().transfer_give_ups(), 0u);
  EXPECT_EQ(service.primary().peers().size(), 1u);
}

}  // namespace
}  // namespace rtpb::core
