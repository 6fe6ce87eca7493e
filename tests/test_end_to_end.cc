// Cross-module end-to-end property tests: the invariants that hold for
// ANY topology/workload when control and data plane agree, plus failure
// injection sweeps that must always be detected.
#include <gtest/gtest.h>

#include "controller/routing.hpp"
#include "dataplane/fault.hpp"
#include "testutil.hpp"
#include "veridp/repair.hpp"
#include "veridp/server.hpp"
#include "veridp/workload.hpp"

namespace veridp {
namespace {

struct TopoCase {
  const char* name;
  int kind;  // 0=linear(5) 1=ft4 2=internet2(3) 3=stanford(14,2) 4=toy
};

// Names each case after its topology. gtest's default printout is the raw
// struct bytes, which embed the address of `name` and so changed the ctest
// name on every discovery run under ASLR.
void PrintTo(const TopoCase& c, std::ostream* os) { *os << c.name; }

Topology make(int kind) {
  switch (kind) {
    case 0: return linear(5);
    case 1: return fat_tree(4);
    case 2: return internet2_like(3);
    case 3: return stanford_like(14, 2);
    default: return toy_figure5();
  }
}

class EveryTopology : public ::testing::TestWithParam<TopoCase> {};

// Invariant 1: with identical planes, every report of every flow
// verifies — regardless of delivery or drop (no false positives, §6.3).
TEST_P(EveryTopology, ConsistentPlaneNeverFails) {
  Topology topo = make(GetParam().kind);
  Controller c(topo);
  Server server(c, Server::Mode::kFullRebuild);
  routing::install_shortest_paths(c);
  // Some random ACLs and refinements to stress the predicate paths.
  Rng rng(99);
  workload::add_specific_rules(c, rng, 60);
  workload::add_edge_acls(c, rng, 10);
  server.sync();
  Network net(topo);
  c.deploy(net);

  for (const auto& f : workload::random_flows(topo, rng, 200)) {
    const auto r = net.inject(f.header, f.entry);
    for (const TagReport& rep : r.reports)
      ASSERT_TRUE(server.verify(rep).ok())
          << GetParam().name << " " << f.header.str();
  }
  EXPECT_EQ(server.reports_failed(), 0u);
}

// Invariant 2: sampled delivered/dropped packets produce exactly one
// report; unsampled packets produce none.
TEST_P(EveryTopology, ReportCardinality) {
  Topology topo = make(GetParam().kind);
  Controller c(topo);
  routing::install_shortest_paths(c);
  Network net(topo);
  c.deploy(net);
  Rng rng(123);
  for (const auto& f : workload::random_flows(topo, rng, 150)) {
    const auto r = net.inject(f.header, f.entry);
    if (r.sampled)
      EXPECT_EQ(r.reports.size(), 1u) << GetParam().name;
    else
      EXPECT_TRUE(r.reports.empty());
    // The report's path tag must equal the OR over the real path.
    if (!r.reports.empty()) {
      BloomTag expect(net.tag_bits());
      for (const Hop& h : r.path) expect.insert(h);
      EXPECT_EQ(r.reports[0].tag, expect);
      EXPECT_EQ(r.reports[0].header, f.header);
      EXPECT_EQ(r.reports[0].inport, f.entry);
    }
  }
}

// Invariant 3: the data-plane path of a consistent network equals the
// control-plane walk.
TEST_P(EveryTopology, DataPathMatchesLogicalWalk) {
  Topology topo = make(GetParam().kind);
  Controller c(topo);
  routing::install_shortest_paths(c);
  Network net(topo);
  c.deploy(net);
  Rng rng(321);
  for (const auto& f : workload::random_flows(topo, rng, 100)) {
    const auto r = net.inject(f.header, f.entry);
    const auto walk = logical_walk(topo, c.logical_configs(), f.entry,
                                   f.header);
    ASSERT_EQ(r.path, walk) << GetParam().name << " " << f.header.str();
  }
}

INSTANTIATE_TEST_SUITE_P(Topos, EveryTopology,
                         ::testing::Values(TopoCase{"linear", 0},
                                           TopoCase{"fat_tree", 1},
                                           TopoCase{"internet2", 2},
                                           TopoCase{"stanford", 3}));

// Fault sweep: every fault class on a fat tree is detected by at least
// one failing report, and repair restores a clean plane.
class FaultSweep : public ::testing::TestWithParam<int> {};

TEST_P(FaultSweep, DetectedAndRepairable) {
  Topology topo = fat_tree(4);
  Controller c(topo);
  Server server(c, Server::Mode::kFullRebuild);
  routing::install_shortest_paths(c);
  server.sync();
  Network net(topo);
  c.deploy(net);
  FaultInjector inject(net);
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 3);

  // Choose a switch that carries traffic and a fault class per param.
  const SwitchId sw = topo.find("agg_0_0");
  const auto& rules = net.at(sw).config().table.rules();
  ASSERT_FALSE(rules.empty());
  const FlowRule victim = rules[rng.index(rules.size())];
  switch (GetParam() % 4) {
    case 0:
      ASSERT_TRUE(inject.drop_rule(sw, victim.id));
      break;
    case 1:
      ASSERT_TRUE(inject.replace_with_drop(sw, victim.id));
      break;
    case 2: {
      const PortId wrong =
          victim.action.out == 1 ? 2 : 1;
      ASSERT_TRUE(inject.rewrite_rule_output(sw, victim.id, wrong));
      break;
    }
    default:
      inject.insert_external_rule(
          sw, FlowRule{900000 + static_cast<RuleId>(GetParam()), 99999,
                       Match::dst_prefix(victim.match.dst),
                       Action::output(victim.action.out == 1 ? 2 : 1)});
      break;
  }

  std::size_t failures = 0;
  std::optional<TagReport> first;
  for (const auto& f : workload::ping_all(topo)) {
    const auto r = net.inject(f.header, f.entry);
    for (const TagReport& rep : r.reports)
      if (!server.verify(rep).ok()) {
        ++failures;
        if (!first) first = rep;
      }
  }
  ASSERT_GT(failures, 0u) << "fault class " << GetParam() % 4;

  RepairEngine repair(c, net);
  repair.repair_from(*first);
  std::size_t after = 0;
  for (const auto& f : workload::ping_all(topo)) {
    const auto r = net.inject(f.header, f.entry);
    for (const TagReport& rep : r.reports)
      if (!server.verify(rep).ok()) ++after;
  }
  EXPECT_EQ(after, 0u) << "fault class " << GetParam() % 4;
}

INSTANTIATE_TEST_SUITE_P(Classes, FaultSweep, ::testing::Range(0, 8));

// §2.2 "priority obedience" (the HP 5406zl behaviour): the switch keeps
// all rules but stops honoring priorities — the oldest-inserted match
// wins. Detection requires a rule whose physical insertion order differs
// from its priority order, which is exactly what a live update creates.
TEST(FaultE2E, IgnorePriorityDetectedAndLocalized) {
  Topology topo = linear(3);
  Controller c(topo);
  Server server(c, Server::Mode::kFullRebuild);
  routing::install_shortest_paths(c);
  server.sync();
  Network net(topo);
  c.deploy(net);

  // Live update: a high-priority blackhole for one host at the middle
  // switch, appended to the physical table after the base rules.
  const Match victim = Match::dst_prefix(Prefix{Ipv4::of(10, 0, 2, 7), 32});
  const RuleId id = c.add_rule(1, 1000, victim, Action::drop());
  net.at(1).config().table.add(FlowRule{id, 1000, victim, Action::drop()});

  const PacketHeader h =
      testutil::header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 2, 7));
  {
    // Sanity: with priorities honored, both planes drop at switch 1.
    const auto r = net.inject(h, PortKey{0, 3});
    ASSERT_EQ(r.disposition, Disposition::kDropped);
    ASSERT_EQ(r.reports.size(), 1u);
    ASSERT_TRUE(server.verify(r.reports[0]).ok());
  }

  FaultInjector inject(net);
  inject.ignore_priority(1);
  const auto r = net.inject(h, PortKey{0, 3});
  ASSERT_EQ(r.disposition, Disposition::kDelivered)
      << "the older /24 forward rule must shadow the blackhole";
  ASSERT_EQ(r.reports.size(), 1u);
  EXPECT_FALSE(server.verify(r.reports[0]).ok())
      << "priority inversion must be detected";
  const LocalizeResult inferred = server.localize(r.reports[0]);
  ASSERT_FALSE(inferred.candidates.empty());
  bool blamed = false;
  for (const Candidate& cand : inferred.candidates)
    if (cand.deviating_switch == 1) blamed = true;
  EXPECT_TRUE(blamed) << "localization must name switch 1";
}

// §6.2 "access violation": an in-bound ACL entry is lost on the switch,
// so denied traffic leaks through while the controller still believes it
// is filtered.
TEST(FaultE2E, RemoveAclEntryDetectedAndLocalized) {
  Topology topo = linear(3);
  Controller c(topo);
  Server server(c, Server::Mode::kFullRebuild);
  routing::install_shortest_paths(c);
  // Security policy: the edge port of switch 0 denies inbound telnet.
  Match telnet;
  telnet.dst_port = 23;
  c.set_in_acl(0, 3, Acl().deny(telnet));
  server.sync();
  Network net(topo);
  c.deploy(net);

  const PacketHeader h = testutil::header(
      Ipv4::of(10, 0, 0, 9), Ipv4::of(10, 0, 2, 9), 23, kProtoTcp, 40000);
  {
    // Sanity: both planes deny telnet at the entry port.
    const auto r = net.inject(h, PortKey{0, 3});
    ASSERT_EQ(r.disposition, Disposition::kDropped);
    ASSERT_EQ(r.reports.size(), 1u);
    ASSERT_TRUE(server.verify(r.reports[0]).ok());
  }

  FaultInjector inject(net);
  ASSERT_TRUE(inject.remove_acl_entry(0, 3, /*inbound=*/true, 0));
  const auto r = net.inject(h, PortKey{0, 3});
  ASSERT_EQ(r.disposition, Disposition::kDelivered)
      << "the access violation is live";
  ASSERT_EQ(r.reports.size(), 1u);
  EXPECT_FALSE(server.verify(r.reports[0]).ok())
      << "leaked traffic must be detected";
  const LocalizeResult inferred = server.localize(r.reports[0]);
  ASSERT_FALSE(inferred.candidates.empty());
  bool blamed = false;
  for (const Candidate& cand : inferred.candidates)
    if (cand.deviating_switch == 0) blamed = true;
  EXPECT_TRUE(blamed) << "localization must name the entry switch";
}

}  // namespace
}  // namespace veridp
