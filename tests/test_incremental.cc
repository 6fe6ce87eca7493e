// Incremental path-table update tests (§4.4). The load-bearing property:
// after any sequence of rule adds/deletes, the incrementally-maintained
// path table is structurally identical to a from-scratch rebuild.
#include "veridp/incremental.hpp"

#include <gtest/gtest.h>

#include "controller/routing.hpp"
#include "testutil.hpp"
#include "veridp/workload.hpp"

namespace veridp {
namespace {

using testutil::header;

RuleEvent add_ev(SwitchId sw, RuleId id, const Prefix& p, PortId out) {
  return RuleEvent{RuleEvent::Kind::kAdd, sw,
                   FlowRule{id, p.len, Match::dst_prefix(p),
                            out == kDropPort ? Action::drop()
                                             : Action::output(out)}};
}

RuleEvent del_ev(SwitchId sw, RuleId id) {
  RuleEvent ev;
  ev.kind = RuleEvent::Kind::kDelete;
  ev.sw = sw;
  ev.rule.id = id;
  ev.rule.match = Match::dst_prefix(Prefix{});
  return ev;
}

TEST(Incremental, InitializeMatchesConfigBuild) {
  // On a dst-prefix-only workload the flow-forest initialization must
  // equal the ConfigTransferProvider full build.
  Topology topo = linear(3);
  Controller c(topo);
  routing::install_shortest_paths(c);
  HeaderSpace space;

  IncrementalUpdater upd(space, topo);
  upd.initialize(c.logical_configs());

  ConfigTransferProvider provider(space, topo, c.logical_configs());
  const PathTable full = PathTableBuilder(space, topo, provider).build();
  EXPECT_TRUE(equivalent(upd.table(), full));
  EXPECT_TRUE(upd.consistent_with_rebuild());
  EXPECT_GT(upd.num_flow_nodes(), 0u);
}

TEST(Incremental, AddRuleRedirectsTraffic) {
  Topology topo = linear(3);
  Controller c(topo);
  routing::install_shortest_paths(c);
  HeaderSpace space;
  IncrementalUpdater upd(space, topo);
  upd.initialize(c.logical_configs());

  // A /32 inside subnet 2, delivered out a *different* edge port... the
  // linear chain has one edge per switch; steer it to port 1 at switch 2
  // is a link port — instead blackhole it (drop rule), a common update.
  const Prefix victim{Ipv4::of(10, 0, 2, 7), 32};
  const auto stats = upd.apply(add_ev(2, 900, victim, kDropPort));
  EXPECT_GT(stats.nodes_touched, 0u);
  EXPECT_TRUE(upd.consistent_with_rebuild());

  // The new drop path exists and verifies like the data plane would act.
  const auto* drops = upd.table().lookup(PortKey{0, 3}, PortKey{2, kDropPort});
  ASSERT_NE(drops, nullptr);
  bool found = false;
  for (const PathEntry& e : *drops)
    if (e.headers.contains(header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 2, 7))))
      found = true;
  EXPECT_TRUE(found);
}

TEST(Incremental, DeleteRuleRestoresPreviousTable) {
  Topology topo = linear(3);
  Controller c(topo);
  routing::install_shortest_paths(c);
  HeaderSpace space;
  IncrementalUpdater upd(space, topo);
  upd.initialize(c.logical_configs());

  IncrementalUpdater reference(space, topo);
  reference.initialize(c.logical_configs());

  const Prefix p{Ipv4::of(10, 0, 1, 64), 26};
  upd.apply(add_ev(0, 901, p, 2));
  upd.apply(del_ev(0, 901));
  EXPECT_TRUE(equivalent(upd.table(), reference.table()));
  EXPECT_TRUE(upd.consistent_with_rebuild());
}

TEST(Incremental, DuplicatePrefixAddIsNoOp) {
  Topology topo = linear(2);
  Controller c(topo);
  routing::install_shortest_paths(c);
  HeaderSpace space;
  IncrementalUpdater upd(space, topo);
  upd.initialize(c.logical_configs());
  // Subnet 0's own /24 is already present at switch 0.
  const auto stats =
      upd.apply(add_ev(0, 902, Prefix{Ipv4::of(10, 0, 0, 0), 24}, 1));
  EXPECT_EQ(stats.nodes_touched, 0u);
  EXPECT_TRUE(upd.consistent_with_rebuild());
}

TEST(Incremental, SamePortRefinementTouchesNothing) {
  // A more-specific rule pointing at the SAME port as its parent moves
  // headers from a port to itself: the path table must not change.
  Topology topo = linear(3);
  Controller c(topo);
  routing::install_shortest_paths(c);
  HeaderSpace space;
  IncrementalUpdater upd(space, topo);
  upd.initialize(c.logical_configs());
  IncrementalUpdater reference(space, topo);
  reference.initialize(c.logical_configs());

  // At switch 0, subnet 2 routes out port 2; refine with a /28 to port 2.
  const auto stats =
      upd.apply(add_ev(0, 903, Prefix{Ipv4::of(10, 0, 2, 16), 28}, 2));
  EXPECT_EQ(stats.nodes_touched, 0u);
  EXPECT_TRUE(equivalent(upd.table(), reference.table()));
}

// The big property sweep: random update sequences on several topologies,
// incremental table == rebuild after every step.
// Both fields 8 bytes wide: no padding, so gtest's byte printout (and
// the ctest name) is the same on every test discovery.
struct SweepCase {
  std::uint64_t seed;
  // 0 = linear(4), 1 = fat_tree(4), 2 = internet2_like(3)
  std::int64_t topo_kind;
};

class IncrementalSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  static Topology make_topo(std::int64_t kind) {
    switch (kind) {
      case 0: return linear(4);
      case 1: return fat_tree(4);
      default: return internet2_like(3);
    }
  }
};

TEST_P(IncrementalSweep, RandomUpdatesStayEquivalentToRebuild) {
  const auto [seed, kind] = GetParam();
  Topology topo = make_topo(kind);
  Controller c(topo);
  routing::install_shortest_paths(c);
  HeaderSpace space;
  IncrementalUpdater upd(space, topo);
  upd.initialize(c.logical_configs());

  Rng rng(seed);
  const auto& subnets = topo.subnets();
  std::vector<RuleEvent> live;  // added events eligible for deletion
  RuleId next_id = 10000;

  for (int round = 0; round < 25; ++round) {
    if (!live.empty() && rng.chance(0.35)) {
      const std::size_t i = rng.index(live.size());
      upd.apply(del_ev(live[i].sw, live[i].rule.id));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const auto& [port, subnet] = subnets[rng.index(subnets.size())];
      (void)port;
      if (subnet.len >= 30) continue;
      const auto len = static_cast<std::uint8_t>(
          rng.uniform(subnet.len + 1, std::min(30, subnet.len + 8)));
      const Prefix p{subnet.addr |
                         (static_cast<std::uint32_t>(rng.uniform(0, 0xffffffff)) &
                          ~Prefix::mask(subnet.len)),
                     len};
      const SwitchId sw = static_cast<SwitchId>(rng.index(topo.num_switches()));
      // Random output port or drop; loops are legal (builder cuts them).
      const PortId out = rng.chance(0.2)
                             ? kDropPort
                             : static_cast<PortId>(rng.uniform(1, topo.num_ports(sw)));
      const RuleEvent ev = add_ev(sw, next_id++, p, out);
      upd.apply(ev);
      live.push_back(ev);
    }
    // Equivalence checked every few rounds (rebuilds are costly).
    if (round % 5 == 4) {
      ASSERT_TRUE(upd.consistent_with_rebuild()) << "round " << round;
    }
  }
  EXPECT_TRUE(upd.consistent_with_rebuild());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, IncrementalSweep,
    ::testing::Values(SweepCase{1, 0}, SweepCase{2, 0}, SweepCase{3, 1},
                      SweepCase{4, 1}, SweepCase{5, 2}, SweepCase{6, 2},
                      SweepCase{7, 1}, SweepCase{8, 2}));

}  // namespace
}  // namespace veridp
