// Network simulator tests: forwarding walks, dispositions, report
// emission, middlebox hairpins, loops.
#include "dataplane/network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "controller/routing.hpp"
#include "dataplane/fault.hpp"
#include "flow/walk.hpp"
#include "testutil.hpp"
#include "topo/generators.hpp"
#include "veridp/workload.hpp"

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

// Installs "everything to 10.0.i.0/24 goes toward switch i" on a chain.
void install_chain_rules(Network& net, int n) {
  RuleId id = 1;
  for (int dst = 0; dst < n; ++dst) {
    const Prefix p{Ipv4::of(10, 0, static_cast<std::uint8_t>(dst), 0), 24};
    for (int s = 0; s < n; ++s) {
      const PortId out = s == dst ? 3 : (s < dst ? 2u : 1u);
      net.at(static_cast<SwitchId>(s))
          .config()
          .table.add(FlowRule{id++, 24, Match::dst_prefix(p),
                              Action::output(out)});
    }
  }
}

class ChainNetwork : public ::testing::Test {
 protected:
  ChainNetwork() : net(linear(3)) { install_chain_rules(net, 3); }
  Network net;
};

TEST_F(ChainNetwork, DeliversAcrossTheChain) {
  const auto r = net.inject(mk(Ipv4::of(10, 0, 0, 5), Ipv4::of(10, 0, 2, 5)),
                            PortKey{0, 3});
  EXPECT_EQ(r.disposition, Disposition::kDelivered);
  EXPECT_EQ(r.exit, (PortKey{2, 3}));
  ASSERT_EQ(r.path.size(), 3u);
  EXPECT_EQ(r.path[0], (Hop{3, 0, 2}));
  EXPECT_EQ(r.path[1], (Hop{1, 1, 2}));
  EXPECT_EQ(r.path[2], (Hop{1, 2, 3}));
  EXPECT_TRUE(r.sampled);
  // Exactly one report, from the exit switch.
  ASSERT_EQ(r.reports.size(), 1u);
  EXPECT_EQ(r.reports[0].inport, (PortKey{0, 3}));
  EXPECT_EQ(r.reports[0].outport, (PortKey{2, 3}));
}

TEST_F(ChainNetwork, ReportTagMatchesPathHops) {
  const auto r = net.inject(mk(Ipv4::of(10, 0, 0, 5), Ipv4::of(10, 0, 2, 5)),
                            PortKey{0, 3});
  BloomTag expect(net.tag_bits());
  for (const Hop& h : r.path) expect.insert(h);
  ASSERT_EQ(r.reports.size(), 1u);
  EXPECT_EQ(r.reports[0].tag, expect);
}

TEST_F(ChainNetwork, TableMissDropsWithReport) {
  const auto r = net.inject(mk(Ipv4::of(10, 0, 0, 5), Ipv4::of(99, 0, 0, 1)),
                            PortKey{0, 3});
  EXPECT_EQ(r.disposition, Disposition::kDropped);
  EXPECT_EQ(r.exit, (PortKey{0, kDropPort}));
  ASSERT_EQ(r.reports.size(), 1u);
  EXPECT_EQ(r.reports[0].outport, (PortKey{0, kDropPort}));
}

TEST_F(ChainNetwork, InAclDropEmitsDropReport) {
  Match bad;
  bad.src = Prefix{Ipv4::of(10, 0, 0, 0), 24};
  net.at(1).config().in_acls[1] = Acl{}.deny(bad);
  const auto r = net.inject(mk(Ipv4::of(10, 0, 0, 5), Ipv4::of(10, 0, 2, 5)),
                            PortKey{0, 3});
  EXPECT_EQ(r.disposition, Disposition::kDropped);
  EXPECT_EQ(r.exit, (PortKey{1, kDropPort}));
}

TEST_F(ChainNetwork, SameSwitchDelivery) {
  // 10.0.0/24 delivered out of switch 0's own edge port 3... inject from
  // the chain-end edge port 1 instead to avoid hairpinning.
  const auto r = net.inject(mk(Ipv4::of(10, 9, 9, 9), Ipv4::of(10, 0, 0, 1)),
                            PortKey{0, 1});
  EXPECT_EQ(r.disposition, Disposition::kDelivered);
  EXPECT_EQ(r.exit, (PortKey{0, 3}));
  EXPECT_EQ(r.path.size(), 1u);
  ASSERT_EQ(r.reports.size(), 1u);
}

TEST(Network, LoopTerminatesViaTtlWithReport) {
  // Two switches pointing at each other for the same prefix.
  Network net(linear(2));
  const Prefix p{Ipv4::of(10, 0, 9, 0), 24};
  net.at(0).config().table.add(
      FlowRule{1, 24, Match::dst_prefix(p), Action::output(2)});
  net.at(1).config().table.add(
      FlowRule{2, 24, Match::dst_prefix(p), Action::output(1)});
  const auto r = net.inject(mk(Ipv4::of(10, 0, 0, 5), Ipv4::of(10, 0, 9, 1)),
                            PortKey{0, 3});
  EXPECT_EQ(r.disposition, Disposition::kTtlExpired);
  EXPECT_EQ(static_cast<int>(r.path.size()), kMaxPathLength);
  ASSERT_EQ(r.reports.size(), 1u);
  // The TTL-expiry report names an internal outport; it cannot match any
  // path-table entry, so the server flags the loop (§6.2).
  EXPECT_FALSE(net.topology().is_edge_port(r.reports[0].outport));
}

TEST(Network, MiddleboxHairpinKeepsTagging) {
  // The Figure-5 SSH path: H1 -> S1 -> S2 -> middlebox -> S2 -> S3 -> H3,
  // steered with OpenFlow in_port rules (Rule 5/6 of the figure).
  Network net(toy_figure5());
  const SwitchId s1 = net.topology().find("S1");
  const SwitchId s2 = net.topology().find("S2");
  const SwitchId s3 = net.topology().find("S3");

  Match ssh = Match::dst_prefix(Prefix{Ipv4::of(10, 0, 2, 1), 32});
  ssh.dst_port = 22;
  net.at(s1).config().table.add(FlowRule{1, 40, ssh, Action::output(3)});
  // S2: traffic arriving from S1 (port 1) goes to the middlebox (port 3);
  // traffic returning from the middlebox (port 3) goes on to S3 (port 2).
  Match from_s1 = Match::any();
  from_s1.in_port = 1;
  Match from_mb = Match::any();
  from_mb.in_port = 3;
  net.at(s2).config().table.add(FlowRule{2, 40, from_s1, Action::output(3)});
  net.at(s2).config().table.add(FlowRule{3, 40, from_mb, Action::output(2)});
  net.at(s3).config().table.add(
      FlowRule{4, 32, Match::dst_prefix(Prefix{Ipv4::of(10, 0, 2, 1), 32}),
               Action::output(2)});

  const auto r = net.inject(
      mk(Ipv4::of(10, 0, 1, 1), Ipv4::of(10, 0, 2, 1), 22), PortKey{s1, 1});
  EXPECT_EQ(r.disposition, Disposition::kDelivered);
  EXPECT_EQ(r.exit, (PortKey{s3, 2}));
  // Four hops, including both middlebox hairpin hops at S2.
  ASSERT_EQ(r.path.size(), 4u);
  EXPECT_EQ(r.path[0], (Hop{1, s1, 3}));
  EXPECT_EQ(r.path[1], (Hop{1, s2, 3}));
  EXPECT_EQ(r.path[2], (Hop{3, s2, 2}));
  EXPECT_EQ(r.path[3], (Hop{1, s3, 2}));
  // The tag is the OR of the four hop filters (the Table-1 tag column).
  BloomTag expect(net.tag_bits());
  for (const Hop& h : r.path) expect.insert(h);
  ASSERT_EQ(r.reports.size(), 1u);
  EXPECT_EQ(r.reports[0].tag, expect);
}

TEST(Network, PacketCountersIncrement) {
  Network net(linear(2));
  net.at(0).config().table.add(
      FlowRule{1, 24, Match::dst_prefix(Prefix{Ipv4::of(10, 0, 1, 0), 24}),
               Action::output(2)});
  net.at(1).config().table.add(
      FlowRule{2, 24, Match::dst_prefix(Prefix{Ipv4::of(10, 0, 1, 0), 24}),
               Action::output(3)});
  net.inject(mk(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 1, 1)), PortKey{0, 3});
  EXPECT_EQ(net.at(0).packets_seen(), 1u);
  EXPECT_EQ(net.at(1).packets_seen(), 1u);
}

// The data-plane path of every flow equals the walk over the switches'
// own (physical) configs, cut at the VeriDP TTL as a sampled packet is.
void expect_paths_equal_physical_walk(
    Network& net, const std::vector<workload::Flow>& flows) {
  std::vector<SwitchConfig> physical;
  for (SwitchId s = 0; s < net.num_switches(); ++s)
    physical.push_back(net.at(s).config());
  for (const auto& f : flows) {
    const auto r = net.inject(f.header, f.entry);
    ASSERT_EQ(r.path, logical_walk(net.topology(), physical, f.entry,
                                   f.header, kMaxPathLength))
        << f.header.str();
  }
}

TEST(Network, PathsEqualPhysicalWalkOnFatTreeWithFaults) {
  const Topology topo = fat_tree(4);
  Controller c(topo);
  routing::install_shortest_paths(c);
  Network net(topo);
  c.deploy(net);
  const auto flows = workload::ping_all(topo);
  expect_paths_equal_physical_walk(net, flows);

  FaultInjector inject(net);
  Rng rng(5);
  for (SwitchId s = 0; s < net.num_switches(); s += 3) {
    const auto& rules = net.at(s).config().table.rules();
    if (rules.empty()) continue;
    const RuleId victim = rules[rng.index(rules.size())].id;
    switch (s % 4) {
      case 0:
        inject.drop_rule(s, victim);
        break;
      case 1:
        inject.rewrite_rule_output(
            s, victim,
            static_cast<PortId>(rng.uniform(1, net.at(s).num_ports())));
        break;
      case 2:
        inject.replace_with_drop(s, victim);
        break;
      default:
        inject.ignore_priority(s);
        break;
    }
  }
  ASSERT_GE(inject.history().size(), 4u);
  expect_paths_equal_physical_walk(net, flows);
}

TEST(Network, PathsEqualPhysicalWalkThroughAMiddlebox) {
  const Topology topo = toy_figure5();
  Controller c(topo);
  testutil::install_figure5(c);
  Network net(topo);
  c.deploy(net);
  // Port 22 takes the hairpin through S2's middlebox port.
  for (const std::uint16_t dport : {std::uint16_t{80}, std::uint16_t{22}})
    expect_paths_equal_physical_walk(net, workload::ping_all(topo, dport));
}

}  // namespace
}  // namespace veridp
