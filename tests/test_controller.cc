// Controller tests: logical rule bookkeeping, shortest-path routing
// compilation, event publication, deployment and lossy channels.
#include "controller/controller.hpp"

#include <gtest/gtest.h>

#include "controller/policy.hpp"
#include "controller/routing.hpp"
#include "flow/walk.hpp"
#include "topo/generators.hpp"

namespace veridp {
namespace {

PacketHeader mk(Ipv4 src, Ipv4 dst, std::uint16_t dport = 80) {
  PacketHeader h;
  h.src_ip = src;
  h.dst_ip = dst;
  h.proto = kProtoTcp;
  h.src_port = 777;
  h.dst_port = dport;
  return h;
}

/// The controller-intended path for `h` entering at `entry`.
std::vector<Hop> logical_path(const Controller& c, PortKey entry,
                              const PacketHeader& h) {
  return logical_walk(c.topology(), c.logical_configs(), entry, h);
}

TEST(Controller, AddDeleteRulePublishesEvents) {
  const Topology topo = linear(2);
  Controller c(topo);
  std::vector<RuleEvent> events;
  c.subscribe([&events](const RuleEvent& e) { events.push_back(e); });

  const RuleId id = c.add_rule(
      0, 24, Match::dst_prefix(Prefix{Ipv4::of(10, 0, 1, 0), 24}),
      Action::output(2));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, RuleEvent::Kind::kAdd);
  EXPECT_EQ(events[0].sw, 0u);
  EXPECT_EQ(events[0].rule.id, id);
  EXPECT_EQ(c.num_rules(), 1u);

  auto removed = c.delete_rule(0, id);
  ASSERT_TRUE(removed);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].kind, RuleEvent::Kind::kDelete);
  EXPECT_EQ(c.num_rules(), 0u);
  EXPECT_FALSE(c.delete_rule(0, id).has_value());
}

TEST(Routing, BfsNextHopsOnChain) {
  const Topology topo = linear(4);
  const auto next = routing::bfs_next_hops(topo, 3);
  EXPECT_EQ(next.at(0), 2u);  // rightward
  EXPECT_EQ(next.at(1), 2u);
  EXPECT_EQ(next.at(2), 2u);
  EXPECT_FALSE(next.contains(3));
  const auto back = routing::bfs_next_hops(topo, 0);
  EXPECT_EQ(back.at(3), 1u);  // leftward
}

TEST(Routing, ShortestPathsDeliverEverywhereOnChain) {
  const Topology topo = linear(4);
  Controller c(topo);
  routing::install_shortest_paths(c);
  // Rules: for each of 4 subnets, one rule at each of 4 switches.
  EXPECT_EQ(c.num_rules(), 16u);
  // Logical walk from subnet 0's edge port to subnet 3 ends at its port.
  const auto path = logical_path(
      c, PortKey{0, 3}, mk(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 3, 1)));
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.back().sw, 3u);
  EXPECT_EQ(path.back().out, 3u);
  EXPECT_EQ(path.size(), 4u);
}

TEST(Routing, ShortestPathsOnFatTreeAreMinimal) {
  const Topology topo = fat_tree(4);
  Controller c(topo);
  routing::install_shortest_paths(c);
  const auto& subnets = topo.subnets();
  // Same-pod different-edge pair: 2 inter-switch hops + delivery = path
  // length 3 hops; cross-pod: 5 hops (edge-agg-core-agg-edge + deliver)...
  // verify against BFS distance for a sample of pairs.
  for (std::size_t i = 0; i < 6; ++i) {
    const auto& [sp, ss] = subnets[i];
    const auto& [dp, ds] = subnets[subnets.size() - 1 - i];
    if (sp == dp) continue;
    const auto path = logical_path(
        c, sp, mk(Ipv4{ss.addr}, Ipv4{ds.addr}));
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.back().sw, dp.sw);
    EXPECT_EQ(path.back().out, dp.port);
    EXPECT_LE(path.size(), 6u);
  }
}

TEST(Controller, DeployCopiesEverythingReliably) {
  const Topology topo = linear(3);
  Controller c(topo);
  routing::install_shortest_paths(c);
  Match bad;
  bad.src = Prefix{Ipv4::of(66, 0, 0, 0), 8};
  c.set_in_acl(1, 1, Acl{}.deny(bad));

  Network net(topo);
  const std::size_t installed = c.deploy(net);
  EXPECT_EQ(installed, c.num_rules());
  for (SwitchId s = 0; s < topo.num_switches(); ++s)
    EXPECT_EQ(net.at(s).config().table.size(), c.logical(s).table.size());
  EXPECT_FALSE(net.at(1).config().in_acl(1).trivially_permits_all());

  // Deployed data plane actually delivers.
  const auto r = net.inject(mk(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 2, 1)),
                            PortKey{0, 3});
  EXPECT_EQ(r.disposition, Disposition::kDelivered);
}

TEST(Controller, RedeployClearsStalePhysicalRules) {
  const Topology topo = linear(2);
  Controller c(topo);
  Network net(topo);
  // Stale rule in the physical table from a previous epoch.
  net.at(0).config().table.add(
      FlowRule{999, 99, Match::any(), Action::drop()});
  c.deploy(net);
  EXPECT_EQ(net.at(0).config().table.size(), 0u);
}

TEST(Controller, LossyChannelDropsInstalls) {
  const Topology topo = linear(3);
  Controller c(topo);
  routing::install_shortest_paths(c);
  Network net(topo);
  LossyChannel lossy(0.5, /*seed=*/42);
  const std::size_t installed = c.deploy(net, &lossy);
  EXPECT_LT(installed, c.num_rules());
  EXPECT_GT(installed, 0u);
  EXPECT_EQ(installed + lossy.lost(), c.num_rules());
}

TEST(Policy, DropTrafficInstallsDropRule) {
  const Topology topo = linear(2);
  Controller c(topo);
  routing::install_shortest_paths(c);
  Match ssh;
  ssh.dst_port = 22;
  policy::drop_traffic(c, 0, ssh, 1000);
  const auto path = logical_path(
      c, PortKey{0, 3}, mk(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 1, 1), 22));
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0].out, kDropPort);
}

TEST(Policy, SteerOverridesRouting) {
  const Topology topo = toy_figure5();
  Controller c(topo);
  const SwitchId s1 = topo.find("S1"), s2 = topo.find("S2"),
                 s3 = topo.find("S3");
  routing::install_shortest_paths(c);
  // Steer SSH-to-H3 via S2 (middlebox waypoint) instead of direct S1->S3.
  Match ssh = Match::dst_prefix(Prefix{Ipv4::of(10, 0, 2, 1), 32});
  ssh.dst_port = 22;
  policy::steer(c, s1, ssh, 3, 1000);
  Match from_s1 = Match::any();
  from_s1.in_port = 1;
  policy::steer(c, s2, from_s1, 3, 1000);
  Match from_mb = Match::any();
  from_mb.in_port = 3;
  policy::steer(c, s2, from_mb, 2, 1000);

  const auto ssh_path = logical_path(
      c, PortKey{s1, 1}, mk(Ipv4::of(10, 0, 1, 1), Ipv4::of(10, 0, 2, 1), 22));
  ASSERT_EQ(ssh_path.size(), 4u);
  EXPECT_EQ(ssh_path[1], (Hop{1, s2, 3}));  // to middlebox
  EXPECT_EQ(ssh_path[2], (Hop{3, s2, 2}));  // back from middlebox

  const auto web_path = logical_path(
      c, PortKey{s1, 1}, mk(Ipv4::of(10, 0, 1, 1), Ipv4::of(10, 0, 2, 1), 80));
  ASSERT_EQ(web_path.size(), 2u);  // direct S1 -> S3
  EXPECT_EQ(web_path[0].sw, s1);
  EXPECT_EQ(web_path[1].sw, s3);
}

TEST(Policy, TeSplitSplitsBySourcePrefix) {
  const Topology topo = toy_figure5();
  Controller c(topo);
  const SwitchId s1 = topo.find("S1");
  routing::install_shortest_paths(c);
  const Match to_h3 = Match::dst_prefix(Prefix{Ipv4::of(10, 0, 2, 0), 24});
  policy::te_split(c, s1, to_h3,
                   {{Prefix{Ipv4::of(10, 0, 1, 1), 32}, 3},
                    {Prefix{Ipv4::of(10, 0, 1, 2), 32}, 4}},
                   1000);
  const auto p1 = logical_path(
      c, PortKey{s1, 1}, mk(Ipv4::of(10, 0, 1, 1), Ipv4::of(10, 0, 2, 1)));
  const auto p2 = logical_path(
      c, PortKey{s1, 2}, mk(Ipv4::of(10, 0, 1, 2), Ipv4::of(10, 0, 2, 1)));
  ASSERT_FALSE(p1.empty());
  ASSERT_FALSE(p2.empty());
  EXPECT_EQ(p1[0].out, 3u);
  EXPECT_EQ(p2[0].out, 4u);
}

TEST(Policy, DenyInboundExtendsAcl) {
  const Topology topo = linear(2);
  Controller c(topo);
  Match a;
  a.dst_port = 22;
  Match b;
  b.dst_port = 23;
  policy::deny_inbound(c, 0, 3, a);
  policy::deny_inbound(c, 0, 3, b);
  EXPECT_EQ(c.logical(0).in_acl(3).entries().size(), 2u);
  PacketHeader h = mk(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 1, 1), 23);
  EXPECT_FALSE(c.logical(0).in_acl(3).permits(h));
}

}  // namespace
}  // namespace veridp
