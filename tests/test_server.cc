// VeriDP server tests: controller tap, lazy rebuilds, incremental mode,
// verification + localization end to end.
#include "veridp/server.hpp"

#include <gtest/gtest.h>

#include "controller/routing.hpp"
#include "dataplane/fault.hpp"
#include "testutil.hpp"
#include "veridp/workload.hpp"

namespace veridp {
namespace {

using testutil::header;

TEST(Server, FullRebuildModeVerifiesConsistentPlane) {
  Topology topo = linear(3);
  Controller c(topo);
  Server server(c, Server::Mode::kFullRebuild);
  routing::install_shortest_paths(c);
  server.sync();
  Network net(topo);
  c.deploy(net);

  for (const auto& flow : workload::ping_all(topo)) {
    const auto r = net.inject(flow.header, flow.entry);
    for (const TagReport& rep : r.reports)
      EXPECT_TRUE(server.verify(rep).ok());
  }
  EXPECT_EQ(server.reports_failed(), 0u);
  EXPECT_GT(server.reports_verified(), 0u);
}

TEST(Server, IncrementalModeMatchesFullRebuild) {
  Topology topo = fat_tree(4);
  Controller c(topo);
  HeaderSpace shared;  // one BDD arena so the tables are comparable
  Server inc(c, Server::Mode::kIncremental, BloomTag::kDefaultBits, shared);
  Server full(c, Server::Mode::kFullRebuild, BloomTag::kDefaultBits, shared);
  routing::install_shortest_paths(c);
  inc.sync();
  full.sync();
  EXPECT_TRUE(equivalent(inc.table(), full.table()));
}

TEST(Server, RuleEventsKeepIncrementalTableFresh) {
  Topology topo = linear(3);
  Controller c(topo);
  Server server(c, Server::Mode::kIncremental);
  routing::install_shortest_paths(c);
  server.sync();

  // Live update through the controller: blackhole one host.
  const RuleId id = c.add_rule(
      2, 32, Match::dst_prefix(Prefix{Ipv4::of(10, 0, 2, 7), 32}),
      Action::drop());
  Network net(topo);
  c.deploy(net);
  const auto r = net.inject(
      header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 2, 7)), PortKey{0, 3});
  EXPECT_EQ(r.disposition, Disposition::kDropped);
  ASSERT_EQ(r.reports.size(), 1u);
  EXPECT_TRUE(server.verify(r.reports[0]).ok()) << "both planes dropped it";

  // Delete the rule again: delivery resumes and still verifies.
  c.delete_rule(2, id);
  c.deploy(net);
  const auto r2 = net.inject(
      header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 2, 7)), PortKey{0, 3});
  EXPECT_EQ(r2.disposition, Disposition::kDelivered);
  EXPECT_TRUE(server.verify(r2.reports[0]).ok());
}

TEST(Server, FullRebuildModeIsLazyButFresh) {
  Topology topo = linear(2);
  Controller c(topo);
  Server server(c, Server::Mode::kFullRebuild);
  routing::install_shortest_paths(c);
  server.sync();
  const auto before = server.stats();
  // ACL change (outside the incremental fragment) goes through a dirty
  // flag + rebuild on next access.
  Match ssh;
  ssh.dst_port = 22;
  c.add_rule(0, 500, ssh, Action::drop());
  const auto after = server.stats();
  EXPECT_NE(before.num_paths, after.num_paths);
}

TEST(Server, DetectsAndLocalizesInjectedFault) {
  Topology topo = fat_tree(4);
  Controller c(topo);
  Server server(c, Server::Mode::kFullRebuild);
  routing::install_shortest_paths(c);
  server.sync();
  Network net(topo);
  c.deploy(net);

  // Rewire one delivery rule at an edge switch to the wrong host port.
  const SwitchId edge = topo.find("edge_0_0");
  ASSERT_NE(edge, kNoSwitch);
  const FlowRule* victim = nullptr;
  for (const FlowRule& r : net.at(edge).config().table.rules())
    if (r.action.out > 2) {  // host-facing ports on a k=4 edge are 3,4
      victim = &r;
      break;
    }
  ASSERT_NE(victim, nullptr);
  const PortId wrong = victim->action.out == 3 ? 4 : 3;
  FaultInjector inject(net);
  ASSERT_TRUE(inject.rewrite_rule_output(edge, victim->id, wrong));

  std::size_t failed = 0, localized = 0;
  for (const auto& flow : workload::ping_all(topo)) {
    const auto r = net.inject(flow.header, flow.entry);
    for (const TagReport& rep : r.reports) {
      if (server.verify(rep).ok()) continue;
      ++failed;
      const auto inferred = server.localize(rep);
      if (inferred.recovered(r.path)) {
        ++localized;
        // Every candidate matching the real path blames the edge switch.
        for (const Candidate& cand : inferred.candidates) {
          if (cand.path == r.path) {
            EXPECT_EQ(cand.deviating_switch, edge);
          }
        }
      }
    }
  }
  EXPECT_GT(failed, 0u);
  EXPECT_EQ(localized, failed) << "misdelivery to a sibling port is the "
                                  "easiest localization case";
}

TEST(Server, LossyDeploymentIsDetected) {
  // §2.2 "lack of data plane acknowledgement": the controller believes
  // every rule is installed; the channel silently lost some. VeriDP
  // must flag the resulting blackholes/deviations without being told.
  Topology topo = fat_tree(4);
  Controller c(topo);
  Server server(c, Server::Mode::kFullRebuild);
  routing::install_shortest_paths(c);
  server.sync();
  Network net(topo);
  LossyChannel lossy(0.05, /*seed=*/1234);
  c.deploy(net, &lossy);
  ASSERT_GT(lossy.lost(), 0u);

  std::size_t failures = 0;
  for (const auto& flow : workload::ping_all(topo)) {
    const auto r = net.inject(flow.header, flow.entry);
    for (const TagReport& rep : r.reports)
      if (!server.verify(rep).ok()) ++failures;
  }
  EXPECT_GT(failures, 0u);

  // Redeploying reliably restores consistency.
  c.deploy(net);
  failures = 0;
  for (const auto& flow : workload::ping_all(topo)) {
    const auto r = net.inject(flow.header, flow.entry);
    for (const TagReport& rep : r.reports)
      if (!server.verify(rep).ok()) ++failures;
  }
  EXPECT_EQ(failures, 0u);
}

TEST(Server, TagBitsPropagateToTable) {
  Topology topo = linear(2);
  Controller c(topo);
  Server server(c, Server::Mode::kFullRebuild, /*tag_bits=*/32);
  routing::install_shortest_paths(c);
  server.sync();
  server.table().for_each([](PortKey, PortKey, const PathEntry& e) {
    EXPECT_EQ(e.tag.bits(), 32);
  });
  // A matching-width data plane verifies end to end.
  Network net(topo, 32);
  c.deploy(net);
  const auto r = net.inject(
      testutil::header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 1, 1)),
      PortKey{0, 3});
  ASSERT_EQ(r.reports.size(), 1u);
  EXPECT_TRUE(server.verify(r.reports[0]).ok());
}

// Regression: stats() and table() force the same lazy rebuild that
// verify() does. With epoch checking on, a rebuild triggered by a stats
// call must retire the superseded table into the snapshot ring exactly
// like one triggered by verify — otherwise in-flight reports sampled
// under the old config turn into false positives, and Verdict::matched
// pointers handed out earlier dangle.
TEST(Server, StatsRebuildInterleavesWithEpochVerification) {
  Topology topo = linear(3);
  Controller c(topo);
  Server server(c, Server::Mode::kFullRebuild);
  server.enable_epoch_checking();
  routing::install_shortest_paths(c);
  server.sync();
  Network net(topo);
  c.deploy(net);
  net.set_config_epoch(c.epoch());

  // A report sampled under the initial config.
  const auto r0 = net.inject(
      header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 2, 1)), PortKey{0, 3});
  ASSERT_EQ(r0.reports.size(), 1u);
  const Verdict v0 = server.verify(r0.reports[0]);
  ASSERT_TRUE(v0.ok());
  ASSERT_NE(v0.matched, nullptr);
  const BloomTag tag_then = v0.matched->tag;

  // Rule event, then a stats() call — NOT a verify — forces the rebuild.
  c.add_rule(1, 1000,
             Match::dst_prefix(Prefix{Ipv4::of(10, 0, 2, 1), 32}),
             Action::drop());
  c.deploy(net);
  net.set_config_epoch(c.epoch());
  (void)server.stats();
  EXPECT_EQ(server.snapshot()->ranges.size(), 1u)
      << "the stats() rebuild must retire the old table into the ring";

  // The pre-update report still verifies OK against its epoch's table,
  // interleaved with more stats/table accesses.
  EXPECT_TRUE(server.verify(r0.reports[0]).ok());
  (void)server.table();
  // The old matched entry is still alive (the ring owns it now) — under
  // ASan this dereference is the regression test.
  EXPECT_EQ(v0.matched->tag, tag_then);

  // A report sampled under the new config verifies against the new table.
  const auto r1 = net.inject(
      header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 2, 1)), PortKey{0, 3});
  ASSERT_EQ(r1.disposition, Disposition::kDropped);
  ASSERT_EQ(r1.reports.size(), 1u);
  EXPECT_TRUE(server.verify(r1.reports[0]).ok());
  EXPECT_EQ(server.reports_failed(), 0u);
  EXPECT_EQ(server.reports_verified(),
            server.reports_passed() + server.reports_failed() +
                server.reports_stale());
}

// Without a covering snapshot and outside the grace window, an old-epoch
// report that fails against the current table is classified stale —
// inconclusive, never a false positive.
TEST(Server, UncoveredOldEpochFailuresAreStaleNotFailed) {
  Topology topo = linear(3);
  Controller c(topo);
  Server server(c, Server::Mode::kFullRebuild);
  server.enable_epoch_checking(/*snapshot_ring=*/0, /*grace_window=*/0);
  routing::install_shortest_paths(c);
  server.sync();
  Network net(topo);
  c.deploy(net);
  net.set_config_epoch(c.epoch());

  const auto r0 = net.inject(
      header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 2, 1)), PortKey{0, 3});
  ASSERT_EQ(r0.reports.size(), 1u);

  // The config moves on; the old path is no longer admitted.
  c.add_rule(1, 1000,
             Match::dst_prefix(Prefix{Ipv4::of(10, 0, 2, 1), 32}),
             Action::drop());
  const Verdict v = server.verify(r0.reports[0]);
  EXPECT_EQ(v.status, VerifyStatus::kStaleEpoch);
  EXPECT_FALSE(v.failed());
  EXPECT_EQ(server.reports_stale(), 1u);
  EXPECT_EQ(server.reports_failed(), 0u);
}

// Incremental mode mutates its table in place (no snapshots); the grace
// window supplies the same no-false-positive guarantee: a recent-epoch
// report that passes the current table is conclusive, one that fails is
// stale.
TEST(Server, IncrementalModeUsesGraceWindowForOldEpochs) {
  Topology topo = linear(3);
  Controller c(topo);
  Server server(c, Server::Mode::kIncremental);
  server.enable_epoch_checking();
  routing::install_shortest_paths(c);
  server.sync();
  Network net(topo);
  c.deploy(net);
  net.set_config_epoch(c.epoch());

  const auto kept = net.inject(
      header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 1, 1)), PortKey{0, 3});
  const auto rerouted = net.inject(
      header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 2, 1)), PortKey{0, 3});
  ASSERT_EQ(kept.reports.size(), 1u);
  ASSERT_EQ(rerouted.reports.size(), 1u);

  // In-fragment update: blackhole the second destination.
  c.add_rule(1, 32, Match::dst_prefix(Prefix{Ipv4::of(10, 0, 2, 1), 32}),
             Action::drop());
  // The unaffected old report passes the (mutated) current table: kOk.
  EXPECT_TRUE(server.verify(kept.reports[0]).ok());
  // The rerouted one fails the current table but is within the grace
  // window: kStaleEpoch, not a false positive.
  const Verdict v = server.verify(rerouted.reports[0]);
  EXPECT_EQ(v.status, VerifyStatus::kStaleEpoch);
  EXPECT_EQ(server.reports_failed(), 0u);
}

TEST(Server, StatsExposeTableShape) {
  Topology topo = linear(3);
  Controller c(topo);
  Server server(c, Server::Mode::kFullRebuild);
  routing::install_shortest_paths(c);
  server.sync();
  const auto s = server.stats();
  EXPECT_GT(s.num_pairs, 0u);
  EXPECT_GE(s.num_paths, s.num_pairs);
  EXPECT_GT(s.avg_path_length, 0.0);
  EXPECT_EQ(server.tag_bits(), BloomTag::kDefaultBits);
}

}  // namespace
}  // namespace veridp
