// Baseline tests: ATPG catches reception faults but misses path-only
// faults (which VeriDP catches); Monocle probes actually distinguish
// their target rules.
#include <gtest/gtest.h>

#include "baseline/atpg.hpp"
#include "baseline/monocle.hpp"
#include "controller/policy.hpp"
#include "controller/routing.hpp"
#include "dataplane/fault.hpp"
#include "testutil.hpp"
#include "veridp/path_builder.hpp"
#include "veridp/verifier.hpp"

namespace veridp {
namespace {

using testutil::header;

struct Deployment {
  explicit Deployment(Topology t) : topo(std::move(t)), controller(topo), net(topo) {
    routing::install_shortest_paths(controller);
    controller.deploy(net);
    ConfigTransferProvider provider(space, topo, controller.logical_configs());
    table = PathTableBuilder(space, topo, provider).build();
  }
  HeaderSpace space;
  Topology topo;
  Controller controller;
  Network net;
  PathTable table;
};

TEST(Atpg, ConsistentPlanePassesAllProbes) {
  Deployment d(fat_tree(4));
  Rng rng(1);
  const auto probes = baseline::generate_probes(d.table, rng);
  ASSERT_FALSE(probes.empty());
  const auto result = baseline::run(d.net, probes);
  EXPECT_EQ(result.passed, result.probes);
  EXPECT_TRUE(result.failed.empty());
}

TEST(Atpg, DetectsBlackhole) {
  Deployment d(linear(3));
  FaultInjector inject(d.net);
  const auto& rules = d.net.at(1).config().table.rules();
  ASSERT_FALSE(rules.empty());
  ASSERT_TRUE(inject.replace_with_drop(1, rules.front().id));
  Rng rng(2);
  const auto probes = baseline::generate_probes(d.table, rng);
  const auto result = baseline::run(d.net, probes);
  EXPECT_LT(result.passed, result.probes);
}

TEST(Atpg, MissesPathDeviationThatVeriDpCatches) {
  // The §3.1 argument in executable form. Stanford-like zone router
  // deviates traffic via the other backbone router; every probe still
  // arrives at its expected exit port, so ATPG sees nothing. VeriDP's
  // tags expose the detour.
  Deployment d(stanford_like(14, 2));
  const SwitchId boza = d.topo.find("boza");
  const SwitchId coza = d.topo.find("coza");
  const Prefix dst = *d.topo.subnet(PortKey{coza, 4});
  const FlowRule* victim = nullptr;
  for (const FlowRule& r : d.net.at(boza).config().table.rules())
    if (r.match.dst == dst && r.action.out == 1) victim = &r;
  ASSERT_NE(victim, nullptr);
  FaultInjector inject(d.net);
  ASSERT_TRUE(inject.rewrite_rule_output(boza, victim->id, 2));

  Rng rng(3);
  const auto probes = baseline::generate_probes(d.table, rng);
  const auto atpg = baseline::run(d.net, probes);
  EXPECT_EQ(atpg.passed, atpg.probes) << "ATPG is blind to the detour";

  std::size_t veridp_failures = 0;
  for (const auto& p : probes) {
    const auto r = d.net.inject(p.header, p.entry);
    for (const TagReport& rep : r.reports)
      if (!verify_report(rep, d.table).ok()) ++veridp_failures;
  }
  EXPECT_GT(veridp_failures, 0u) << "VeriDP sees what ATPG cannot";
}

TEST(Monocle, ProbeHitsItsRuleAndDistinguishes) {
  HeaderSpace space;
  SwitchConfig cfg;
  cfg.table.add(FlowRule{1, 8,
                         Match::dst_prefix(Prefix{Ipv4::of(10, 0, 0, 0), 8}),
                         Action::output(1)});
  cfg.table.add(FlowRule{2, 24,
                         Match::dst_prefix(Prefix{Ipv4::of(10, 0, 2, 0), 24}),
                         Action::output(2)});
  auto probe = baseline::generate_probe(space, cfg, 4, 2);
  ASSERT_TRUE(probe.has_value());
  // The probe hits rule 2...
  const FlowRule* hit = cfg.table.lookup(probe->header, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 2u);
  EXPECT_EQ(probe->expected_out, 2u);
  // ...and would be forwarded elsewhere without it.
  FlowTable without = cfg.table;
  without.remove(2);
  EXPECT_NE(without.lookup_port(probe->header, 1), probe->expected_out);
  EXPECT_EQ(probe->without_rule, 1u);
}

TEST(Monocle, ShadowedRuleIsUnprobeable) {
  HeaderSpace space;
  SwitchConfig cfg;
  cfg.table.add(FlowRule{1, 100,
                         Match::dst_prefix(Prefix{Ipv4::of(10, 0, 0, 0), 8}),
                         Action::output(1)});
  cfg.table.add(FlowRule{2, 1,
                         Match::dst_prefix(Prefix{Ipv4::of(10, 0, 2, 0), 24}),
                         Action::output(2)});
  // Rule 2 is fully covered by the higher-priority /8.
  EXPECT_FALSE(baseline::generate_probe(space, cfg, 4, 2).has_value());
}

TEST(Monocle, SameActionRefinementIsUnprobeable) {
  // Removing a refinement that forwards to the same port changes nothing
  // observable: no distinguishing probe exists.
  HeaderSpace space;
  SwitchConfig cfg;
  cfg.table.add(FlowRule{1, 8,
                         Match::dst_prefix(Prefix{Ipv4::of(10, 0, 0, 0), 8}),
                         Action::output(1)});
  cfg.table.add(FlowRule{2, 24,
                         Match::dst_prefix(Prefix{Ipv4::of(10, 0, 2, 0), 24}),
                         Action::output(1)});
  EXPECT_FALSE(baseline::generate_probe(space, cfg, 4, 2).has_value());
}

TEST(Monocle, DropRuleProbeable) {
  HeaderSpace space;
  SwitchConfig cfg;
  cfg.table.add(FlowRule{1, 8,
                         Match::dst_prefix(Prefix{Ipv4::of(10, 0, 0, 0), 8}),
                         Action::output(1)});
  cfg.table.add(FlowRule{2, 100,
                         Match::dst_prefix(Prefix{Ipv4::of(10, 0, 2, 0), 24}),
                         Action::drop()});
  auto probe = baseline::generate_probe(space, cfg, 4, 2);
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->expected_out, kDropPort);
  EXPECT_EQ(probe->without_rule, 1u);
}

TEST(Monocle, GenerateAllCoversTheTable) {
  Deployment d(linear(4));
  const SwitchId sw = 1;
  const auto run = baseline::generate_all(
      d.space, d.net.at(sw).config(), d.topo.num_ports(sw));
  // Transit rules on a chain are all probeable.
  EXPECT_EQ(run.probes.size() + run.skipped,
            d.net.at(sw).config().table.size());
  EXPECT_GT(run.probes.size(), 0u);
  for (const auto& p : run.probes) {
    const FlowRule* hit = d.net.at(sw).config().table.lookup(p.header, 1);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->id, p.rule);
  }
}

}  // namespace
}  // namespace veridp
