// VeriDP server tests: controller tap, lazy rebuilds, incremental mode,
// verification + localization end to end.
#include "veridp/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "controller/routing.hpp"
#include "dataplane/fault.hpp"
#include "testutil.hpp"
#include "veridp/parallel_server.hpp"
#include "veridp/path_builder.hpp"
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
  // kFullRebuild builds every table in an arena of its own, so its side
  // is compared by verdicts below.
  Server full(c, Server::Mode::kFullRebuild);
  routing::install_shortest_paths(c);
  inc.sync();
  full.sync();
  ASSERT_EQ(inc.mode(), Server::Mode::kIncremental) << "no fallback";
  ConfigTransferProvider provider(shared, topo, c.logical_configs());
  const PathTable reference =
      PathTableBuilder(shared, topo, provider).build();
  EXPECT_TRUE(equivalent(inc.table(), reference));

  Network net(topo);
  c.deploy(net);
  std::size_t reports = 0;
  for (const auto& flow : workload::ping_all(topo)) {
    for (const TagReport& rep : net.inject(flow.header, flow.entry).reports) {
      ++reports;
      const Verdict a = inc.verify(rep);
      const Verdict b = full.verify(rep);
      EXPECT_EQ(a.status, b.status);
      EXPECT_TRUE(a.ok());
    }
  }
  EXPECT_GT(reports, 0u);
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

/// Injects `ping_all` once and verifies every report; returns
/// {reports, failed}.
std::pair<std::size_t, std::size_t> verify_ping_all(Server& server,
                                                   Network& net,
                                                   const Topology& topo) {
  std::size_t reports = 0, failed = 0;
  for (const auto& flow : workload::ping_all(topo))
    for (const TagReport& rep : net.inject(flow.header, flow.entry).reports) {
      ++reports;
      if (server.verify(rep).failed()) ++failed;
    }
  return {reports, failed};
}

// A kIncremental server whose configuration holds an ACL at sync() is
// outside §4.4's fragment (RuleTreeProvider ignores ACLs): it serves
// kFullRebuild instead of failing the reports the ACL drops.
TEST(Server, IncrementalFallsBackOnAnAclAtSync) {
  Topology topo = linear(3);
  Controller c(topo);
  Server server(c, Server::Mode::kIncremental);
  routing::install_shortest_paths(c);
  const PortKey entry = workload::ping_all(topo).front().entry;
  c.set_in_acl(entry.sw, entry.port, Acl(/*default_permit=*/false));
  server.sync();
  EXPECT_EQ(server.mode(), Server::Mode::kFullRebuild);
  Network net(topo);
  c.deploy(net);
  const auto [reports, failed] = verify_ping_all(server, net, topo);
  EXPECT_EQ(reports, 6u);
  EXPECT_EQ(failed, 0u);
}

// An ACL installed after sync() is a change to R like any rule: it bumps
// the epoch, reaches the server as a kAcl event, and the next verify
// judges against a table that holds it (§3.2's tap sees every change).
// A deny-all inbound ACL on ping_all's first entry port drops 2 of the 6
// reports' packets at ingress; a server that missed the event fails them.
// kIncremental falls back (the updater models no ACL) unless the ACL
// trivially permits all.
TEST(Server, AclSetAfterSyncIsAnEvent) {
  for (const Server::Mode mode :
       {Server::Mode::kFullRebuild, Server::Mode::kIncremental}) {
    SCOPED_TRACE(mode == Server::Mode::kIncremental ? "incremental" : "full");
    Topology topo = linear(3);
    Controller c(topo);
    Server server(c, mode);
    routing::install_shortest_paths(c);
    server.sync();
    std::vector<RuleEvent> events;
    const std::uint64_t tap =
        c.subscribe([&events](const RuleEvent& e) { events.push_back(e); });
    const std::uint32_t synced = server.epoch();
    const PortKey entry = workload::ping_all(topo).front().entry;

    // A permit-all ACL is an event that changes no forwarding.
    c.set_out_acl(entry.sw, entry.port, Acl());
    EXPECT_EQ(server.epoch(), synced + 1);
    EXPECT_EQ(server.mode(), mode);

    c.set_in_acl(entry.sw, entry.port, Acl(/*default_permit=*/false));
    EXPECT_EQ(server.epoch(), synced + 2);
    EXPECT_EQ(server.mode(), Server::Mode::kFullRebuild);
    Network net(topo);
    c.deploy(net);
    const auto [reports, failed] = verify_ping_all(server, net, topo);
    EXPECT_EQ(reports, 6u);
    EXPECT_EQ(failed, 0u);

    // Outbound: a deny-all on the same port drops, at egress, what the
    // other entry ports send into its subnet.
    c.set_out_acl(entry.sw, entry.port, Acl(/*default_permit=*/false));
    EXPECT_EQ(server.epoch(), synced + 3);
    c.deploy(net);
    const auto [reports2, failed2] = verify_ping_all(server, net, topo);
    EXPECT_GT(reports2, 0u);
    EXPECT_EQ(failed2, 0u);

    ASSERT_EQ(events.size(), 3u);
    for (const RuleEvent& e : events) {
      EXPECT_EQ(e.kind, RuleEvent::Kind::kAcl);
      EXPECT_EQ(e.sw, entry.sw);
      EXPECT_EQ(e.port, entry.port);
    }
    EXPECT_TRUE(events[0].outbound);
    EXPECT_FALSE(events[1].outbound);
    EXPECT_TRUE(events[2].outbound);
    c.unsubscribe(tap);
  }
}

// A rule whose priority is not its prefix length is outside §4.4's
// fragment: the /32 drop at priority 1 never wins over the /24 route in
// the data plane, but the updater would model it as the longest match.
TEST(Server, IncrementalFallsBackOnARuleOutsideTheFragment) {
  Topology topo = linear(3);
  Controller c(topo);
  Server server(c, Server::Mode::kIncremental);
  routing::install_shortest_paths(c);
  server.sync();
  ASSERT_EQ(server.mode(), Server::Mode::kIncremental);
  const workload::Flow first = workload::ping_all(topo).front();
  c.add_rule(first.entry.sw, 1,
             Match::dst_prefix(Prefix{first.header.dst_ip, 32}),
             Action::drop());
  EXPECT_EQ(server.mode(), Server::Mode::kFullRebuild);
  Network net(topo);
  c.deploy(net);
  const auto [reports, failed] = verify_ping_all(server, net, topo);
  EXPECT_EQ(reports, 6u);
  EXPECT_EQ(failed, 0u);
}

// The snapshot a fallback replaces aliases the updater's table, so the
// first full-rebuild snapshot retires nothing into the epoch ring: a
// retained alias would dangle once the updater is gone. Reports of the
// old epoch fall to the grace window instead.
TEST(Server, IncrementalFallbackRetiresNoAliasedTable) {
  Topology topo = linear(3);
  Controller c(topo);
  Server server(c, Server::Mode::kIncremental);
  server.enable_epoch_checking();
  routing::install_shortest_paths(c);
  server.sync();
  Network net(topo);
  c.deploy(net);
  net.set_config_epoch(c.epoch());
  const workload::Flow first = workload::ping_all(topo).front();
  const auto before = net.inject(first.header, first.entry);
  ASSERT_EQ(before.reports.size(), 1u);

  c.add_rule(first.entry.sw, 1,
             Match::dst_prefix(Prefix{first.header.dst_ip, 32}),
             Action::drop());
  EXPECT_TRUE(server.verify(before.reports[0]).ok());
  EXPECT_EQ(server.mode(), Server::Mode::kFullRebuild);
  EXPECT_TRUE(server.snapshot()->ranges.empty());
}

// The churn perfbench's internet2_churn runs — /29 and /30 rules at
// priority == prefix length — stays inside the fragment and on the
// updater.
TEST(Server, FragmentChurnKeepsIncrementalMode) {
  Topology topo = internet2_like(2);
  Controller c(topo);
  routing::install_shortest_paths(c);
  Rng rng(21);
  ASSERT_GT(workload::add_specific_rules(c, rng, 100), 0u);
  Server server(c, Server::Mode::kIncremental);
  server.sync();
  const auto& subnets = topo.subnets();
  const auto n = static_cast<std::uint32_t>(subnets.size());
  for (std::uint32_t i = 0; i < 40; ++i) {
    const auto& [port, subnet] = subnets[i % n];
    const auto len = static_cast<std::uint8_t>(29 + i % 2);
    const Prefix p{subnet.addr + 8 * (i / n), len};
    ASSERT_TRUE(subnet.contains(p));
    const RuleId id =
        c.add_rule(port.sw, len, Match::dst_prefix(p), Action::drop());
    (void)server.table();
    if (i % 3 == 0) {
      ASSERT_TRUE(c.delete_rule(port.sw, id));
    }
  }
  EXPECT_EQ(server.mode(), Server::Mode::kIncremental);
  Network net(topo);
  c.deploy(net);
  const auto [reports, failed] = verify_ping_all(server, net, topo);
  EXPECT_GT(reports, 0u);
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(server.mode(), Server::Mode::kIncremental);
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

// Every kFullRebuild table is built in an arena of its own, so churn of
// distinct rules cannot grow the serving table's arena: the nodes of a
// superseded table die with it instead of piling up in one shared arena.
TEST(Server, FullRebuildChurnKeepsArenaBounded) {
  Topology topo = internet2_like(2);
  Controller c(topo);
  routing::install_shortest_paths(c);
  Rng rng(20);
  ASSERT_GT(workload::add_specific_rules(c, rng, 200), 0u);
  Server server(c, Server::Mode::kFullRebuild);
  server.sync();
  const auto arena_nodes = [](const PathTable& table) {
    const BddManager* arena = nullptr;
    table.for_each([&arena](PortKey, PortKey, const PathEntry& e) {
      if (!arena) arena = e.headers.manager();
    });
    return arena ? arena->node_count() : std::size_t{0};
  };
  const std::size_t synced = arena_nodes(server.table());
  ASSERT_GT(synced, 2u);

  const auto& subnets = topo.subnets();
  const auto n = static_cast<std::uint32_t>(subnets.size());
  std::size_t peak = 0;
  for (std::uint32_t i = 0; i < 100; ++i) {
    // A distinct /30 each cycle, inside one of the attached subnets.
    const auto& [port, subnet] = subnets[i % n];
    const Prefix victim{subnet.addr + 4 * (i / n), 30};
    ASSERT_TRUE(subnet.contains(victim));
    const RuleId id = c.add_rule(port.sw, 30, Match::dst_prefix(victim),
                                 Action::drop());
    peak = std::max(peak, arena_nodes(server.table()));
    ASSERT_TRUE(c.delete_rule(port.sw, id));
    peak = std::max(peak, arena_nodes(server.table()));
  }
  EXPECT_LE(peak, synced + synced / 10);
}

// A server unsubscribes when it dies, so a rule event after its death
// calls no dead listener (the sanitized preset turns one into a
// use-after-free report). Covers the owned Server inside a
// ParallelServer, including one whose constructor rejected its config
// after that Server had subscribed.
TEST(Server, DestroyedServersLeaveNoControllerListener) {
  Topology topo = linear(3);
  Controller c(topo);
  routing::install_shortest_paths(c);
  Server live(c, Server::Mode::kFullRebuild);
  live.sync();
  const auto churn = [&c] {
    const RuleId id =
        c.add_rule(0, 32, Match::dst_prefix(Prefix{Ipv4::of(10, 0, 2, 9), 32}),
                   Action::drop());
    c.delete_rule(0, id);
  };

  auto server = std::make_unique<Server>(c, Server::Mode::kIncremental);
  server->sync();
  server.reset();
  churn();

  ParallelConfig cfg;
  cfg.workers = 1;
  auto parallel = std::make_unique<ParallelServer>(c, cfg);
  parallel->sync();
  parallel.reset();
  churn();

  cfg.shed_modulus = 0;  // rejected after the owned Server subscribed
  EXPECT_THROW(ParallelServer(c, cfg), std::invalid_argument);
  churn();

  // The survivor's own subscription is the one still attached.
  EXPECT_EQ(live.epoch(), c.epoch());
  (void)live.table();
  EXPECT_EQ(live.snapshot()->table_valid_from, c.epoch());
}

}  // namespace
}  // namespace veridp
