// Tests for the simulated network, device/IP/UDP layers, and link faults.
#include <gtest/gtest.h>

#include "net/layers.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "xk/layer.hpp"

namespace pfi::net {
namespace {

/// Build a minimal app/udp/ip/dev stack on `id`.
struct TestNode {
  xk::Stack stack;
  xk::AppLayer* app;

  TestNode(Network& network, NodeId id) {
    app = static_cast<xk::AppLayer*>(
        stack.add(std::make_unique<xk::AppLayer>()));
    stack.add(std::make_unique<UdpLayer>(id));
    stack.add(std::make_unique<IpLayer>(id));
    stack.add(std::make_unique<NetDev>(network, id));
  }

  void send_datagram(NodeId to, Port to_port, Port from_port,
                     std::string_view payload) {
    xk::Message msg{payload};
    UdpMeta meta;
    meta.remote = to;
    meta.remote_port = to_port;
    meta.local_port = from_port;
    meta.push_onto(msg);
    app->send(std::move(msg));
  }
};

TEST(Network, DeliversDatagramEndToEnd) {
  sim::Scheduler sched;
  Network net{sched};
  TestNode a{net, 1};
  TestNode b{net, 2};
  a.send_datagram(2, 9, 7, "hello");
  sched.run();
  ASSERT_EQ(b.app->received().size(), 1u);
  xk::Message got = b.app->received()[0];
  UdpMeta meta = UdpMeta::pop_from(got);
  EXPECT_EQ(meta.remote, 1u);       // source address
  EXPECT_EQ(meta.remote_port, 7u);  // source port
  EXPECT_EQ(meta.local_port, 9u);
  EXPECT_EQ(got.as_string(), "hello");
}

TEST(Network, AppliesLatency) {
  sim::Scheduler sched;
  Network net{sched};
  net.default_link().latency = sim::msec(50);
  TestNode a{net, 1};
  TestNode b{net, 2};
  a.send_datagram(2, 9, 7, "x");
  sched.run();
  EXPECT_EQ(sched.now(), sim::msec(50));
  EXPECT_EQ(b.app->received().size(), 1u);
}

TEST(Network, PerLinkLatencyOverridesDefault) {
  sim::Scheduler sched;
  Network net{sched};
  net.default_link().latency = sim::msec(1);
  net.link(1, 2).latency = sim::msec(200);
  TestNode a{net, 1};
  TestNode b{net, 2};
  a.send_datagram(2, 9, 7, "x");
  sched.run();
  EXPECT_EQ(sched.now(), sim::msec(200));
}

TEST(Network, LinkDownBlackholes) {
  sim::Scheduler sched;
  Network net{sched};
  net.link(1, 2).down = true;
  TestNode a{net, 1};
  TestNode b{net, 2};
  a.send_datagram(2, 9, 7, "x");
  sched.run();
  EXPECT_TRUE(b.app->received().empty());
  EXPECT_EQ(net.stats().frames_blackholed, 1u);
  // Reverse direction unaffected.
  b.send_datagram(1, 9, 7, "y");
  sched.run();
  EXPECT_EQ(a.app->received().size(), 1u);
}

TEST(Network, LossProbabilityDropsSomeFrames) {
  sim::Scheduler sched;
  Network net{sched, 7};
  net.default_link().loss_probability = 0.5;
  TestNode a{net, 1};
  TestNode b{net, 2};
  for (int i = 0; i < 200; ++i) a.send_datagram(2, 9, 7, "x");
  sched.run();
  const auto got = b.app->received().size();
  EXPECT_GT(got, 50u);
  EXPECT_LT(got, 150u);
  EXPECT_EQ(net.stats().frames_lost + got, 200u);
}

TEST(Network, PartitionSeparatesGroups) {
  sim::Scheduler sched;
  Network net{sched};
  TestNode a{net, 1};
  TestNode b{net, 2};
  TestNode c{net, 3};
  net.partition({{1, 2}, {3}});
  a.send_datagram(3, 9, 7, "blocked");
  a.send_datagram(2, 9, 7, "ok");
  sched.run();
  EXPECT_TRUE(c.app->received().empty());
  EXPECT_EQ(b.app->received().size(), 1u);
  net.heal();
  a.send_datagram(3, 9, 7, "now ok");
  sched.run();
  EXPECT_EQ(c.app->received().size(), 1u);
}

TEST(Network, PartitionAllowsLoopback) {
  sim::Scheduler sched;
  Network net{sched};
  TestNode a{net, 1};
  net.partition({{1}, {2}});
  a.send_datagram(1, 9, 7, "self");
  sched.run();
  EXPECT_EQ(a.app->received().size(), 1u);
}

TEST(Network, NodesOutsidePartitionUnrestricted) {
  sim::Scheduler sched;
  Network net{sched};
  TestNode a{net, 1};
  TestNode d{net, 9};
  net.partition({{1, 2}, {3}});
  a.send_datagram(9, 9, 7, "to outsider");
  d.send_datagram(1, 9, 7, "from outsider");
  sched.run();
  EXPECT_EQ(a.app->received().size(), 1u);
  EXPECT_EQ(d.app->received().size(), 1u);
}

TEST(Network, UnplugStopsBothDirections) {
  sim::Scheduler sched;
  Network net{sched};
  TestNode a{net, 1};
  TestNode b{net, 2};
  net.unplug(2);
  a.send_datagram(2, 9, 7, "in");
  b.send_datagram(1, 9, 7, "out");
  sched.run();
  EXPECT_TRUE(a.app->received().empty());
  EXPECT_TRUE(b.app->received().empty());
  net.plug(2);
  a.send_datagram(2, 9, 7, "in again");
  sched.run();
  EXPECT_EQ(b.app->received().size(), 1u);
}

TEST(Network, UnplugDropsInFlightFrames) {
  sim::Scheduler sched;
  Network net{sched};
  net.default_link().latency = sim::msec(100);
  TestNode a{net, 1};
  TestNode b{net, 2};
  a.send_datagram(2, 9, 7, "in flight");
  sched.run_until(sim::msec(10));
  net.unplug(2);
  sched.run();
  EXPECT_TRUE(b.app->received().empty());
}

TEST(Network, BroadcastReachesEveryoneButSender) {
  sim::Scheduler sched;
  Network net{sched};
  TestNode a{net, 1};
  TestNode b{net, 2};
  TestNode c{net, 3};
  a.send_datagram(kBroadcast, 9, 7, "all");
  sched.run();
  EXPECT_TRUE(a.app->received().empty());
  EXPECT_EQ(b.app->received().size(), 1u);
  EXPECT_EQ(c.app->received().size(), 1u);
}

TEST(Network, UnknownDestinationBlackholed) {
  sim::Scheduler sched;
  Network net{sched};
  TestNode a{net, 1};
  a.send_datagram(99, 9, 7, "nowhere");
  sched.run();
  EXPECT_EQ(net.stats().frames_blackholed, 1u);
}

TEST(IpLayer, WrongDestinationFilteredAtIp) {
  // Deliver a frame addressed to node 9 into node 2's stack; the IP layer
  // must discard it.
  sim::Scheduler sched;
  Network net{sched};
  TestNode b{net, 2};
  xk::Message msg{"stray"};
  const auto udp_len = static_cast<std::uint16_t>(msg.size());
  xk::Writer udp{msg.prepend(6)};
  udp.u16(7);
  udp.u16(9);
  udp.u16(udp_len);
  const auto ip_len = static_cast<std::uint16_t>(msg.size());
  xk::Writer ip{msg.prepend(12)};
  ip.u32(1);  // src
  ip.u32(9);  // dst: NOT node 2
  ip.u8(17);
  ip.u8(64);
  ip.u16(ip_len);
  b.stack.find("ip")->pop(std::move(msg));
  EXPECT_TRUE(b.app->received().empty());
}

TEST(UdpLayer, RuntDatagramDropped) {
  sim::Scheduler sched;
  Network net{sched};
  TestNode b{net, 2};
  xk::Message msg{std::vector<std::uint8_t>{1, 2}};  // too short for UDP hdr
  IpMeta meta;
  meta.remote = 1;
  meta.proto = IpProto::kUdp;
  meta.push_onto(msg);
  b.stack.find("udp")->pop(std::move(msg));
  EXPECT_TRUE(b.app->received().empty());
}

TEST(UdpLayer, NonUdpProtoIgnored) {
  sim::Scheduler sched;
  Network net{sched};
  TestNode b{net, 2};
  xk::Message msg{"tcp-ish"};
  IpMeta meta;
  meta.remote = 1;
  meta.proto = IpProto::kTcp;
  meta.push_onto(msg);
  b.stack.find("udp")->pop(std::move(msg));
  EXPECT_TRUE(b.app->received().empty());
}

TEST(Meta, IpMetaRoundTrip) {
  xk::Message m{"x"};
  IpMeta meta;
  meta.remote = 0xDEADBEEF;
  meta.proto = IpProto::kTcp;
  meta.push_onto(m);
  EXPECT_EQ(m.size(), 1u + IpMeta::kSize);
  IpMeta out = IpMeta::pop_from(m);
  EXPECT_EQ(out.remote, 0xDEADBEEF);
  EXPECT_EQ(out.proto, IpProto::kTcp);
  EXPECT_EQ(m.as_string(), "x");
}

TEST(Meta, UdpMetaRoundTrip) {
  xk::Message m{"y"};
  UdpMeta meta;
  meta.remote = 42;
  meta.remote_port = 7777;
  meta.local_port = 8888;
  meta.push_onto(m);
  UdpMeta out = UdpMeta::pop_from(m);
  EXPECT_EQ(out.remote, 42u);
  EXPECT_EQ(out.remote_port, 7777);
  EXPECT_EQ(out.local_port, 8888);
  EXPECT_EQ(m.as_string(), "y");
}

TEST(Network, BandwidthSerialisesFrames) {
  sim::Scheduler sched;
  Network net{sched};
  net.default_link().latency = sim::msec(10);
  // 1000-byte-ish frames at 80 kbit/s -> ~100 ms of transmission each.
  net.default_link().bandwidth_bps = 80'000;
  TestNode a{net, 1};
  TestNode b{net, 2};
  std::vector<sim::TimePoint> arrivals;
  // Two frames sent back-to-back must arrive ~one transmission time apart.
  a.send_datagram(2, 9, 7, std::string(1000, 'x'));
  a.send_datagram(2, 9, 7, std::string(1000, 'y'));
  sched.run();
  ASSERT_EQ(b.app->received().size(), 2u);
  // First frame: 10 ms latency + ~100 ms tx. Second: queued behind it.
  EXPECT_GE(sched.now(), sim::msec(200));
  EXPECT_LE(sched.now(), sim::msec(230));
}

TEST(Network, InfiniteBandwidthByDefault) {
  sim::Scheduler sched;
  Network net{sched};
  net.default_link().latency = sim::msec(10);
  TestNode a{net, 1};
  TestNode b{net, 2};
  for (int i = 0; i < 50; ++i) a.send_datagram(2, 9, 7, std::string(1000, 'z'));
  sched.run();
  EXPECT_EQ(b.app->received().size(), 50u);
  EXPECT_EQ(sched.now(), sim::msec(10));  // all concurrent, no serialisation
}

TEST(Network, BandwidthIsPerDirectedLink) {
  sim::Scheduler sched;
  Network net{sched};
  net.default_link().latency = sim::msec(1);
  net.link(1, 2).bandwidth_bps = 8'000;  // slow forward path
  TestNode a{net, 1};
  TestNode b{net, 2};
  a.send_datagram(2, 9, 7, std::string(1000, 'x'));  // ~1 s tx
  b.send_datagram(1, 9, 7, "fast reverse");
  sched.run_until(sim::msec(100));
  EXPECT_EQ(a.app->received().size(), 1u);   // reverse path unthrottled
  EXPECT_TRUE(b.app->received().empty());    // forward still serialising
  sched.run();
  EXPECT_EQ(b.app->received().size(), 1u);
}

// Property sweep: jitter keeps delivery within [latency, latency+jitter].
class JitterSweep : public ::testing::TestWithParam<int> {};

TEST_P(JitterSweep, DeliveryWithinBounds) {
  sim::Scheduler sched;
  Network net{sched, static_cast<std::uint64_t>(GetParam() + 1)};
  net.default_link().latency = sim::msec(10);
  net.default_link().jitter = sim::msec(GetParam());
  TestNode a{net, 1};
  TestNode b{net, 2};
  for (int i = 0; i < 20; ++i) a.send_datagram(2, 9, 7, "j");
  sched.run();
  EXPECT_EQ(b.app->received().size(), 20u);
  EXPECT_LE(sched.now(), sim::msec(10 + GetParam()));
  EXPECT_GE(sched.now(), sim::msec(10));
}

INSTANTIATE_TEST_SUITE_P(Jitters, JitterSweep, ::testing::Values(0, 1, 5, 50));

}  // namespace
}  // namespace pfi::net
