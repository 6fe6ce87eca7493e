// Workload-synthesis tests: rule scaling stays loop-free and consistent;
// traffic generators cover what they claim.
#include "veridp/workload.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "controller/routing.hpp"
#include "dataplane/network.hpp"
#include "topo/generators.hpp"
#include "veridp/path_builder.hpp"
#include "veridp/verifier.hpp"

namespace veridp {
namespace {

TEST(Workload, HostInPicksMemberAddress) {
  EXPECT_EQ(workload::host_in(Prefix{Ipv4::of(10, 1, 0, 0), 16}),
            Ipv4::of(10, 1, 0, 1));
  EXPECT_EQ(workload::host_in(Prefix{Ipv4::of(10, 1, 2, 3), 32}),
            Ipv4::of(10, 1, 2, 3));
}

TEST(Workload, PingAllCoversOrderedPairs) {
  const Topology topo = linear(3);
  const auto flows = workload::ping_all(topo);
  EXPECT_EQ(flows.size(), 3u * 2u);
  for (const auto& f : flows) {
    ASSERT_TRUE(topo.is_edge_port(f.entry));
    const auto subnet = topo.subnet(f.entry);
    ASSERT_TRUE(subnet.has_value());
    EXPECT_TRUE(subnet->contains(f.header.src_ip));
    EXPECT_NE(f.header.src_ip, f.header.dst_ip);
  }
}

TEST(Workload, RandomFlowsStayInsideSubnets) {
  const Topology topo = internet2_like(3);
  Rng rng(9);
  const auto flows = workload::random_flows(topo, rng, 200);
  ASSERT_EQ(flows.size(), 200u);
  for (const auto& f : flows) {
    const auto subnet = topo.subnet(f.entry);
    ASSERT_TRUE(subnet.has_value());
    EXPECT_TRUE(subnet->contains(f.header.src_ip));
  }
}

TEST(Workload, AddSpecificRulesGrowsRuleCount) {
  Topology topo = internet2_like(4);
  Controller c(topo);
  routing::install_shortest_paths(c);
  const std::size_t base = c.num_rules();
  Rng rng(31);
  const std::size_t added = workload::add_specific_rules(c, rng, 500);
  EXPECT_GT(added, 400u);  // a few duplicates may be skipped
  EXPECT_EQ(c.num_rules(), base + added);
  // All added rules are dst-prefix-only with priority == prefix length
  // (the incremental updater's fragment).
  for (SwitchId s = 0; s < topo.num_switches(); ++s)
    for (const FlowRule& r : c.logical(s).table.rules()) {
      EXPECT_TRUE(r.match.is_dst_prefix_only());
      EXPECT_EQ(r.priority, r.match.dst.len);
    }
}

TEST(Workload, SpecificRulesAreLoopFreeAndConsistent) {
  // The load-bearing property: ECMP-based refinement must never create
  // loops, and (with both planes deployed identically) every ping must
  // still verify against the rebuilt path table.
  Topology topo = fat_tree(4);
  Controller c(topo);
  routing::install_shortest_paths(c);
  Rng rng(77);
  workload::add_specific_rules(c, rng, 300, 33 - 8, 32);  // host-level /32s
  // Fat-tree subnets are /32 already, so refinements need len > 32 —
  // impossible; expect zero additions there.
  EXPECT_EQ(c.num_rules(), 16u * 20u);

  // Internet2 has /16 subnets: refinements apply.
  Topology i2 = internet2_like(3);
  Controller c2(i2);
  routing::install_shortest_paths(c2);
  Rng rng2(78);
  const std::size_t added = workload::add_specific_rules(c2, rng2, 400);
  EXPECT_GT(added, 300u);
  Network net(i2);
  c2.deploy(net);
  HeaderSpace space;
  ConfigTransferProvider provider(space, i2, c2.logical_configs());
  const PathTable table = PathTableBuilder(space, i2, provider).build();
  Rng rng3(79);
  for (const auto& f : workload::random_flows(i2, rng3, 400)) {
    const auto r = net.inject(f.header, f.entry);
    EXPECT_NE(r.disposition, Disposition::kTtlExpired)
        << "refinement introduced a loop for " << f.header.str();
    for (const TagReport& rep : r.reports)
      EXPECT_TRUE(verify_report(rep, table).ok()) << f.header.str();
  }
}

TEST(Workload, EdgeAclsLandOnEdgePorts) {
  Topology topo = stanford_like(14, 2);
  Controller c(topo);
  Rng rng(55);
  const std::size_t added = workload::add_edge_acls(c, rng, 50);
  EXPECT_EQ(added, 50u);
  std::size_t entries = 0;
  for (SwitchId s = 0; s < topo.num_switches(); ++s)
    for (const auto& [port, acl] : c.logical(s).in_acls) {
      EXPECT_TRUE(topo.is_edge_port(PortKey{s, port}));
      entries += acl.entries().size();
    }
  EXPECT_EQ(entries, 50u);
}

TEST(Workload, SpecificRulesRespectPrefixUniquenessPerSwitch) {
  Topology topo = internet2_like(3);
  Controller c(topo);
  routing::install_shortest_paths(c);
  Rng rng(91);
  workload::add_specific_rules(c, rng, 600);
  for (SwitchId s = 0; s < topo.num_switches(); ++s) {
    std::unordered_set<std::uint64_t> seen;
    for (const FlowRule& r : c.logical(s).table.rules()) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(r.match.dst.len) << 32) |
          r.match.dst.addr;
      EXPECT_TRUE(seen.insert(key).second)
          << "duplicate prefix at switch " << s;
    }
  }
}

}  // namespace
}  // namespace veridp
