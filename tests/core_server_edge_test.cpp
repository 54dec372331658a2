// Edge cases and hostile inputs at the ReplicaServer level.
#include "core/rtpb.hpp"

#include <gtest/gtest.h>

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

ServiceParams make_params(std::uint64_t seed = 5) {
  ServiceParams p;
  p.seed = seed;
  p.link.propagation = millis(1);
  return p;
}

TEST(ServerEdge, GarbageDatagramToRtpbPortIsDropped) {
  RtpbService service(make_params());
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  // Attach a hostile node and spray garbage at the backup's RTPB port.
  net::NodeId attacker = service.network().add_node([](const net::Packet&) {});
  service.network().connect(attacker, service.backup().node(), net::LinkParams{});
  xkernel::SimEth* eth = nullptr;  // craft raw frames by hand instead
  (void)eth;
  for (int i = 0; i < 50; ++i) {
    // Raw bytes that are not even a valid IPLITE header.
    service.network().send(attacker, service.backup().node(), Bytes(static_cast<std::size_t>(i % 7), 0xEE));
  }
  service.run_for(seconds(1));
  // Service is unharmed and still replicating.
  EXPECT_GT(service.backup().read(1)->version, 0u);
}

TEST(ServerEdge, ReadUnknownObjectReturnsNullopt) {
  RtpbService service(make_params());
  service.start();
  EXPECT_FALSE(service.primary().read(42).has_value());
}

TEST(ServerEdge, CrashIsIdempotent) {
  RtpbService service(make_params());
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(millis(500));
  service.crash_primary();
  service.crash_primary();  // second call is a no-op
  EXPECT_TRUE(service.primary().crashed());
  service.run_for(seconds(1));
}

TEST(ServerEdge, RegistrationOnCrashedPrimaryStillRejectedSafely) {
  RtpbService service(make_params());
  service.start();
  service.run_for(millis(100));
  service.crash_primary();
  service.run_for(seconds(1));
  // The backup has been promoted; registering through it works.
  ASSERT_EQ(service.backup().role(), Role::kPrimary);
  EXPECT_TRUE(service.backup().register_object(make_spec(7)).ok());
}

TEST(ServerEdge, ConstraintsSurviveFailover) {
  RtpbService service(make_params());
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  ASSERT_TRUE(service.register_object(make_spec(2)).ok());
  ASSERT_TRUE(service.add_constraint({1, 2, millis(30)}).ok());
  service.run_for(seconds(1));
  service.crash_primary();
  service.run_for(seconds(1));
  ASSERT_EQ(service.backup().role(), Role::kPrimary);
  // The replicated constraint still tightens periods on the new primary.
  EXPECT_LE(service.backup().admission().update_period(1), millis(30));
  EXPECT_EQ(service.backup().admission().constraints().size(), 1u);
}

TEST(ServerEdge, StaleUpdatesCounted) {
  // With genuine link reordering absent, stale updates arise from
  // retransmissions racing the periodic stream under loss.
  ServiceParams params = make_params(11);
  params.config.update_loss_probability = 0.5;
  RtpbService service(params);
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(10));
  // At 50% loss with NACK retransmissions some duplicates must arrive.
  EXPECT_GT(service.backup().stale_updates() + service.backup().updates_applied(), 0u);
}

TEST(ServerEdge, CompressedModeSendsMoreOftenThanNormal) {
  auto updates_for = [](UpdateScheduling mode) {
    ServiceParams params = make_params(13);
    params.config.update_scheduling = mode;
    params.config.compressed_target_utilization = 0.5;
    RtpbService service(params);
    service.start();
    ObjectSpec s = make_spec(1);
    s.update_exec = millis(1);
    EXPECT_TRUE(service.register_object(s).ok());
    service.run_for(seconds(5));
    return service.primary().updates_sent();
  };
  EXPECT_GT(updates_for(UpdateScheduling::kCompressed),
            2 * updates_for(UpdateScheduling::kNormal));
}

TEST(ServerEdge, CoupledModeSendsPerWrite) {
  ServiceParams params = make_params(17);
  params.config.update_scheduling = UpdateScheduling::kCoupled;
  RtpbService service(params);
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(2));
  const auto writes = service.client().writes_issued();
  const auto updates = service.primary().updates_sent();
  // One transmission per write (within the tail of in-flight jobs).
  EXPECT_NEAR(static_cast<double>(updates), static_cast<double>(writes),
              static_cast<double>(writes) * 0.05 + 3.0);
  EXPECT_GT(service.backup().updates_applied(), 0u);
}

TEST(ServerEdge, FragmentationStatsExposed) {
  ServiceParams params = make_params(19);
  RtpbService service(params);
  service.start();
  ObjectSpec big = make_spec(1);
  big.size_bytes = 4000;  // > MTU: needs 3 fragments
  ASSERT_TRUE(service.register_object(big).ok());
  service.run_for(seconds(2));
  ASSERT_NE(service.primary().frag(), nullptr);
  EXPECT_GT(service.primary().frag()->fragments_sent(),
            service.primary().frag()->messages_sent());
  EXPECT_GT(service.backup().read(1)->version, 0u);
}

TEST(ServerEdge, DisabledFragmentationStillWorksForSmallObjects) {
  ServiceParams params = make_params(23);
  params.config.enable_fragmentation = false;
  RtpbService service(params);
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  service.run_for(seconds(1));
  EXPECT_EQ(service.primary().frag(), nullptr);
  EXPECT_GT(service.backup().read(1)->version, 0u);
}

/// A service without fragmentation, so a datagram sent to a server's RTPB
/// port reaches its decoder whole.
ServiceParams unfragmented_params() {
  ServiceParams params = make_params();
  params.config.enable_fragmentation = false;
  return params;
}

TEST(ServerEdge, UndecodableFrameAtRtpbPortIsCounted) {
  RtpbService service(unfragmented_params());
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  xkernel::HostStack injector(service.network());
  service.network().connect(injector.node(), service.backup().node(), net::LinkParams{});
  // A valid UDPLITE datagram whose payload is no RTPB message.
  injector.send_datagram(kRtpbPort, service.backup().endpoint(), Bytes(9, 0xEE));
  service.run_for(millis(100));
  EXPECT_EQ(service.backup().undecodable_frames(), 1u);
  EXPECT_EQ(service.primary().undecodable_frames(), 0u);
  EXPECT_GT(service.backup().read(1)->version, 0u);
}

TEST(ServerEdge, ActiveReplicationFrameAtRtpbPortIsForeign) {
  RtpbService service(unfragmented_params());
  service.start();
  xkernel::HostStack injector(service.network());
  service.network().connect(injector.node(), service.backup().node(), net::LinkParams{});
  injector.send_datagram(kRtpbPort, service.backup().endpoint(),
                         wire::encode(wire::ActivePrepare{}));
  injector.send_datagram(kRtpbPort, service.backup().endpoint(),
                         wire::encode(wire::ActiveAck{}));
  service.run_for(millis(100));
  EXPECT_EQ(service.backup().foreign_frames(), 2u);
  EXPECT_EQ(service.backup().undecodable_frames(), 0u);
}

TEST(ServerEdge, PromotionCountsASpecItCannotReadmit) {
  // A QoS notice shrinks object 1's window on the backup below the link
  // delay bound; the replicated spec then fails re-admission when the
  // backup promotes, and its temporal contract is lost.
  RtpbService service(unfragmented_params());
  service.start();
  ASSERT_TRUE(service.register_object(make_spec(1)).ok());
  ASSERT_TRUE(service.register_object(make_spec(2)).ok());
  service.run_for(millis(500));
  xkernel::HostStack injector(service.network());
  service.network().connect(injector.node(), service.backup().node(), net::LinkParams{});
  injector.send_datagram(kRtpbPort, service.backup().endpoint(),
                         wire::encode(wire::ConstraintDowngrade{
                             .object = 1,
                             .delta_primary = millis(20),
                             .delta_backup = millis(20) + micros(1),
                             .update_period = millis(10),
                             .qos_seq = 1,
                             .epoch = 0}));
  service.run_for(millis(100));
  service.crash_primary();
  service.run_for(seconds(1));
  ASSERT_EQ(service.backup().role(), Role::kPrimary);
  EXPECT_EQ(service.backup().contracts_lost(), 1u);
  EXPECT_EQ(service.primary().contracts_lost(), 0u);
}

TEST(ServerEdge, UpdateLossProbabilitySetterBounds) {
  RtpbService service(make_params());
  service.start();
  service.primary().set_update_loss_probability(0.0);
  service.primary().set_update_loss_probability(1.0);
  EXPECT_DEATH(service.primary().set_update_loss_probability(1.5), "precondition");
}

}  // namespace
}  // namespace rtpb::core
