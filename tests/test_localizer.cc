// Fault-localization tests (Algorithm 4): the Figure-7 walkthrough plus a
// randomized fat-tree sweep measuring recovery of the real path.
#include "veridp/localizer.hpp"

#include <gtest/gtest.h>

#include "controller/routing.hpp"
#include "dataplane/fault.hpp"
#include "testutil.hpp"
#include "veridp/path_builder.hpp"
#include "veridp/verifier.hpp"
#include "veridp/workload.hpp"

namespace veridp {
namespace {

using testutil::header;

// The Figure-7 scenario: correct path S1->S2->S4; S1 faultily outputs to
// port 4, so the real path is S1->S3->S6 where the packet is dropped.
class Figure7 : public ::testing::Test {
 protected:
  Figure7() : topo(grid_figure7()), controller(topo), net(topo) {
    s1 = topo.find("S1");
    s2 = topo.find("S2");
    s3 = topo.find("S3");
    s4 = topo.find("S4");
    s5 = topo.find("S5");
    s6 = topo.find("S6");
    const Prefix dst{Ipv4::of(10, 0, 2, 1), 32};
    // Controller-intended path S1(2)->S2(2)->S4(3).
    r_s1 = controller.add_rule(s1, 32, Match::dst_prefix(dst), Action::output(2));
    controller.add_rule(s2, 32, Match::dst_prefix(dst), Action::output(2));
    controller.add_rule(s4, 32, Match::dst_prefix(dst), Action::output(3));
    // Downstream switches of the *faulty* branch: S3 forwards to S6 and
    // S6 has no rule (drop) — also part of the logical configs so that
    // Algorithm 4's healthy-downstream walks can follow them.
    controller.add_rule(s3, 32, Match::dst_prefix(dst), Action::output(3));
    // S5 forwards toward S6 as in the paper's probe of S2's alternates.
    controller.add_rule(s5, 32, Match::dst_prefix(dst), Action::output(3));
    controller.deploy(net);
  }

  Topology topo;
  Controller controller;
  Network net;
  SwitchId s1, s2, s3, s4, s5, s6;
  RuleId r_s1;
};

TEST_F(Figure7, LocalizesS1AndRecoversRealPath) {
  FaultInjector inject(net);
  ASSERT_TRUE(inject.rewrite_rule_output(s1, r_s1, 4));  // the paper's fault

  const PacketHeader h = header(Ipv4::of(10, 0, 1, 1), Ipv4::of(10, 0, 2, 1));
  const auto result = net.inject(h, PortKey{s1, 1});
  EXPECT_EQ(result.disposition, Disposition::kDropped);
  const std::vector<Hop> real{{1, s1, 4}, {1, s3, 3}, {1, s6, kDropPort}};
  EXPECT_EQ(result.path, real);
  ASSERT_EQ(result.reports.size(), 1u);

  // Verification fails (wrong exit pair for this header).
  HeaderSpace space;
  ConfigTransferProvider provider(space, topo, controller.logical_configs());
  PathTable table = PathTableBuilder(space, topo, provider).build();
  EXPECT_FALSE(verify_report(result.reports[0], table).ok());

  // Algorithm 4 recovers the real path and blames S1.
  Localizer loc(topo, controller.logical_configs());
  const auto inferred = loc.infer(result.reports[0]);
  EXPECT_TRUE(inferred.recovered(real));
  bool blamed_s1 = false;
  for (const Candidate& c : inferred.candidates)
    if (c.path == real) blamed_s1 = (c.deviating_switch == s1);
  EXPECT_TRUE(blamed_s1);
}

TEST_F(Figure7, NoFaultMeansCleanVerification) {
  const PacketHeader h = header(Ipv4::of(10, 0, 1, 1), Ipv4::of(10, 0, 2, 1));
  const auto result = net.inject(h, PortKey{s1, 1});
  EXPECT_EQ(result.disposition, Disposition::kDelivered);
  HeaderSpace space;
  ConfigTransferProvider provider(space, topo, controller.logical_configs());
  PathTable table = PathTableBuilder(space, topo, provider).build();
  EXPECT_TRUE(verify_report(result.reports[0], table).ok());
}

TEST_F(Figure7, MidPathFaultAtS2IsLocalized) {
  // Fault at S2 instead: output to S5 (port 3) rather than S4 (port 2).
  FaultInjector inject(net);
  const auto& rules = net.at(s2).config().table.rules();
  ASSERT_EQ(rules.size(), 1u);
  ASSERT_TRUE(inject.rewrite_rule_output(s2, rules[0].id, 3));

  const PacketHeader h = header(Ipv4::of(10, 0, 1, 1), Ipv4::of(10, 0, 2, 1));
  const auto result = net.inject(h, PortKey{s1, 1});
  // Real path: S1 -> S2 -> S5 -> S6 -> drop.
  const std::vector<Hop> real{
      {1, s1, 2}, {1, s2, 3}, {1, s5, 3}, {2, s6, kDropPort}};
  EXPECT_EQ(result.path, real);
  Localizer loc(topo, controller.logical_configs());
  const auto inferred = loc.infer(result.reports[0]);
  EXPECT_TRUE(inferred.recovered(real));
}

TEST(Localizer, LogicalWalkFollowsControlPlane) {
  Topology topo = linear(3);
  Controller c(topo);
  routing::install_shortest_paths(c);
  const auto path =
      logical_walk(topo, c.logical_configs(), PortKey{0, 3},
                   header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 2, 1)));
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[2].out, 3u);
}

// Randomized sweep: rewire one random rule in a fat tree, ping across it,
// and require a high localization rate (Table 3's experiment in
// miniature). Aggregated over several faults because a single unlucky
// rewire can turn every affected ping into a TTL-expired loop, whose
// 16-hop real path is by design not recoverable.
TEST(Localizer, FatTreeSweepRecoversMostRealPaths) {
  Topology topo = fat_tree(4);
  Controller c(topo);
  routing::install_shortest_paths(c);
  HeaderSpace space;
  ConfigTransferProvider provider(space, topo, c.logical_configs());
  PathTable table = PathTableBuilder(space, topo, provider).build();
  Localizer loc(topo, c.logical_configs());
  const auto flows = workload::ping_all(topo);

  Rng rng(4242);
  std::size_t failed = 0, recovered = 0, loops = 0;
  for (int trial = 0; trial < 8; ++trial) {
    Network net(topo);
    c.deploy(net);
    FaultInjector inject(net);
    for (int attempt = 0;; ++attempt) {
      ASSERT_LT(attempt, 200);
      const SwitchId sw =
          static_cast<SwitchId>(rng.index(topo.num_switches()));
      const auto& rules = net.at(sw).config().table.rules();
      if (rules.empty()) continue;
      const FlowRule& victim = rules[rng.index(rules.size())];
      const PortId wrong =
          static_cast<PortId>(1 + rng.index(topo.num_ports(sw)));
      if (wrong == victim.action.out) continue;
      if (inject.rewrite_rule_output(sw, victim.id, wrong)) break;
    }
    for (const auto& flow : flows) {
      const auto r = net.inject(flow.header, flow.entry);
      for (const TagReport& rep : r.reports) {
        if (verify_report(rep, table).ok()) continue;
        ++failed;
        if (r.disposition == Disposition::kTtlExpired) ++loops;
        if (loc.infer(rep).recovered(r.path)) ++recovered;
      }
    }
  }
  ASSERT_GT(failed, 0u) << "no fault perturbed any ping";
  // Non-loop failures must be recovered at a Table-3-like rate.
  const std::size_t recoverable = failed - loops;
  ASSERT_GT(recoverable, 0u);
  EXPECT_GE(static_cast<double>(recovered),
            0.9 * static_cast<double>(recoverable));
}

// Per-fault-class localization precision: one deterministic instance of
// every switch-state FaultKind on the linear chain, with the faulted
// switch in the middle so upstream tags exist. Every failing report
// must produce at least one candidate blaming exactly the faulted
// switch — this is the precision component of the fuzzing campaign's
// scorecard, pinned per class.
class PerClassBlame : public ::testing::Test {
 protected:
  PerClassBlame() : topo(linear(5)), ctrl(topo), net(topo) {
    routing::install_shortest_paths(ctrl);
  }

  void deploy() { ctrl.deploy(net); }

  // Verifies every ping report against the logical plane; failures are
  // localized and scored against `faulty`.
  void sweep(SwitchId faulty) {
    HeaderSpace space;
    ConfigTransferProvider provider(space, topo, ctrl.logical_configs());
    PathTable table = PathTableBuilder(space, topo, provider).build();
    Localizer loc(topo, ctrl.logical_configs());
    for (const auto& f : workload::ping_all(topo)) {
      const auto r = net.inject(f.header, f.entry);
      for (const TagReport& rep : r.reports) {
        if (verify_report(rep, table).ok()) continue;
        ++failed;
        bool hit = false;
        for (const Candidate& cand : loc.infer(rep).candidates)
          hit = hit || cand.deviating_switch == faulty;
        if (hit) ++blamed;
      }
    }
  }

  // The rule at `sw` routing toward subnet 10.0.0.0/24 (port-1 egress
  // for every middle switch) — a victim whose loss every left-bound
  // ping notices.
  RuleId victim_toward_subnet0(SwitchId sw) {
    for (const FlowRule& r : net.at(sw).config().table.rules())
      if (r.match.dst == Prefix{Ipv4::of(10, 0, 0, 0), 24}) return r.id;
    ADD_FAILURE() << "no rule toward subnet 0 at S" << sw;
    return kNoRule;
  }

  Topology topo;
  Controller ctrl;
  Network net;
  std::size_t failed = 0, blamed = 0;
};

TEST_F(PerClassBlame, DropRuleIsBlamedPrecisely) {
  deploy();
  FaultInjector inject(net);
  ASSERT_TRUE(inject.drop_rule(2, victim_toward_subnet0(2)));
  sweep(2);
  ASSERT_GT(failed, 0u);
  EXPECT_EQ(blamed, failed);
}

TEST_F(PerClassBlame, ReplaceWithDropIsBlamedPrecisely) {
  deploy();
  FaultInjector inject(net);
  ASSERT_TRUE(inject.replace_with_drop(2, victim_toward_subnet0(2)));
  sweep(2);
  ASSERT_GT(failed, 0u);
  EXPECT_EQ(blamed, failed);
}

TEST_F(PerClassBlame, RewriteOutputIsBlamedPrecisely) {
  deploy();
  FaultInjector inject(net);
  // Left-bound traffic at S2 detours out the edge port: delivered at
  // the wrong subnet, a clean (loop-free) deviation.
  ASSERT_TRUE(inject.rewrite_rule_output(2, victim_toward_subnet0(2), 3));
  sweep(2);
  ASSERT_GT(failed, 0u);
  EXPECT_EQ(blamed, failed);
}

TEST_F(PerClassBlame, ExternalRuleIsBlamedPrecisely) {
  deploy();
  FaultInjector inject(net);
  inject.insert_external_rule(
      2, FlowRule{888888, 500000,
                  Match::dst_prefix(Prefix{Ipv4::of(10, 0, 0, 0), 24}),
                  Action::output(3)});
  sweep(2);
  ASSERT_GT(failed, 0u);
  EXPECT_EQ(blamed, failed);
}

TEST_F(PerClassBlame, IgnorePriorityIsBlamedPrecisely) {
  // A consistent high-priority blackhole appended to BOTH planes after
  // deploy: honoring priorities drops (logical behaviour), the broken
  // oldest-inserted-wins mode forwards via the older routing rule.
  deploy();
  const Prefix target{Ipv4::of(10, 0, 0, 0), 24};
  const RuleId bh =
      ctrl.add_rule(2, 200000, Match::dst_prefix(target), Action::drop());
  const FlowRule* lr = ctrl.logical(2).table.find(bh);
  ASSERT_NE(lr, nullptr);
  net.at(2).config().table.add(*lr);
  FaultInjector inject(net);
  inject.ignore_priority(2);
  sweep(2);
  ASSERT_GT(failed, 0u);
  EXPECT_EQ(blamed, failed);
}

TEST_F(PerClassBlame, RemoveAclEntryIsBlamedPrecisely) {
  // Logical plane filters left-bound web traffic entering S2; the
  // physical ACL loses the deny entry, so filtered flows leak through.
  Match m;
  m.src = Prefix{Ipv4::of(10, 0, 4, 0), 24};
  m.dst = Prefix{Ipv4::of(10, 0, 0, 0), 24};
  ctrl.set_in_acl(2, 2, Acl{}.deny(m));
  deploy();
  FaultInjector inject(net);
  ASSERT_TRUE(inject.remove_acl_entry(2, 2, /*inbound=*/true, 0));
  sweep(2);
  ASSERT_GT(failed, 0u);
  EXPECT_EQ(blamed, failed);
}

}  // namespace
}  // namespace veridp
