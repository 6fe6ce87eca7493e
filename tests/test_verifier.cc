// Tag-verification tests (Algorithm 3), including the paper's central
// soundness claim: no false positives — a consistent data plane always
// verifies (§6.3).
#include "veridp/verifier.hpp"

#include <gtest/gtest.h>

#include "controller/routing.hpp"
#include "dataplane/fault.hpp"
#include "testutil.hpp"
#include "veridp/path_builder.hpp"
#include "veridp/workload.hpp"

namespace veridp {
namespace {

using testutil::header;

// End-to-end fixture: topology + routing + deployed network + path table.
struct Deployment {
  explicit Deployment(Topology t, int tag_bits = 16)
      : topo(std::move(t)), controller(topo), net(topo, tag_bits) {
    routing::install_shortest_paths(controller);
    controller.deploy(net);
    ConfigTransferProvider provider(space, topo, controller.logical_configs());
    table = PathTableBuilder(space, topo, provider, tag_bits).build();
  }
  HeaderSpace space;
  Topology topo;
  Controller controller;
  Network net;
  PathTable table;
};

TEST(Verifier, ConsistentChainAlwaysPasses) {
  Deployment d(linear(4));
  std::size_t verified = 0;
  std::size_t passed = 0;
  for (const auto& flow : workload::ping_all(d.topo)) {
    const auto r = d.net.inject(flow.header, flow.entry);
    ASSERT_EQ(r.reports.size(), 1u);
    const bool ok = verify_report(r.reports[0], d.table).ok();
    ++verified;
    passed += ok;
    EXPECT_TRUE(ok) << flow.header.str();
  }
  EXPECT_GT(verified, 0u);
  EXPECT_EQ(verified, passed);
}

TEST(Verifier, NoFalsePositivesOnFatTreePingAll) {
  Deployment d(fat_tree(4));
  std::size_t failed = 0;
  for (const auto& flow : workload::ping_all(d.topo)) {
    const auto r = d.net.inject(flow.header, flow.entry);
    ASSERT_EQ(r.disposition, Disposition::kDelivered);
    ASSERT_EQ(r.reports.size(), 1u);
    const bool ok = verify_report(r.reports[0], d.table).ok();
    failed += !ok;
    EXPECT_TRUE(ok) << flow.header.str();
  }
  EXPECT_EQ(failed, 0u);
}

TEST(Verifier, RandomFlowsAlsoPass) {
  Deployment d(fat_tree(4));
  Rng rng(5);
  std::size_t failed = 0;
  for (const auto& flow : workload::random_flows(d.topo, rng, 300)) {
    const auto r = d.net.inject(flow.header, flow.entry);
    for (const TagReport& rep : r.reports) {
      const bool ok = verify_report(rep, d.table).ok();
      failed += !ok;
      EXPECT_TRUE(ok) << flow.header.str();
    }
  }
  EXPECT_EQ(failed, 0u);
}

TEST(Verifier, UnknownDestinationDropsStillVerify) {
  // A packet to an unrouted address drops at the entry switch; the drop
  // path is in the path table, so the report verifies (consistent!).
  Deployment d(linear(3));
  const auto r = d.net.inject(
      header(Ipv4::of(10, 0, 0, 1), Ipv4::of(99, 9, 9, 9)), PortKey{0, 3});
  ASSERT_EQ(r.disposition, Disposition::kDropped);
  ASSERT_EQ(r.reports.size(), 1u);
  EXPECT_TRUE(verify_report(r.reports[0], d.table).ok());
}

TEST(Verifier, MisroutedPacketFailsWithTagMismatchOrNoPath) {
  Deployment d(fat_tree(4));
  FaultInjector inject(d.net);
  // Rewire a transit rule at an aggregation switch to a wrong port.
  const SwitchId agg = d.topo.find("agg_0_0");
  ASSERT_NE(agg, kNoSwitch);
  const auto& rules = d.net.at(agg).config().table.rules();
  ASSERT_FALSE(rules.empty());
  const RuleId victim = rules.front().id;
  const PortId old_port = rules.front().action.out;
  const PortId wrong = old_port == 1 ? 2 : 1;
  ASSERT_TRUE(inject.rewrite_rule_output(agg, victim, wrong));

  std::size_t failures = 0;
  for (const auto& flow : workload::ping_all(d.topo)) {
    const auto r = d.net.inject(flow.header, flow.entry);
    for (const TagReport& rep : r.reports)
      if (!verify_report(rep, d.table).ok()) ++failures;
  }
  EXPECT_GT(failures, 0u);
}

TEST(Verifier, DroppedRuleCausesNoPathFailure) {
  Deployment d(linear(3));
  FaultInjector inject(d.net);
  // Remove the delivery rule for subnet 2 at switch 2 -> blackhole.
  const auto& rules = d.net.at(2).config().table.rules();
  const FlowRule* delivery = nullptr;
  for (const FlowRule& r : rules)
    if (r.action.out == 3) delivery = &r;
  ASSERT_NE(delivery, nullptr);
  ASSERT_TRUE(inject.drop_rule(2, delivery->id));

  const auto r = d.net.inject(
      header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 2, 1)), PortKey{0, 3});
  EXPECT_EQ(r.disposition, Disposition::kDropped);
  ASSERT_EQ(r.reports.size(), 1u);
  const Verdict verdict = verify_report(r.reports[0], d.table);
  EXPECT_FALSE(verdict.ok());
  // The packet died at <S2, ⊥>, a pair with no path admitting its header.
  EXPECT_EQ(verdict.status, VerifyStatus::kNoPath);
  EXPECT_TRUE(verdict.failed());
}

TEST(Verifier, TagMismatchReportsMatchedEntry) {
  Deployment d(linear(3));
  // Forge a report with the right pair/header but corrupted tag.
  const auto r = d.net.inject(
      header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 2, 1)), PortKey{0, 3});
  ASSERT_EQ(r.reports.size(), 1u);
  TagReport forged = r.reports[0];
  // OR in hops until the tag value actually changes (a single hop's bits
  // may coincide with already-set ones).
  for (PortId p = 1; forged.tag == r.reports[0].tag; ++p)
    forged.tag |= BloomTag::of_hop(Hop{p, 7, p + 1}, forged.tag.bits());
  const Verdict verdict = verify_report(forged, d.table);
  EXPECT_EQ(verdict.status, VerifyStatus::kTagMismatch);
  ASSERT_NE(verdict.matched, nullptr);
  EXPECT_TRUE(verdict.matched->headers.contains(forged.header));
}

TEST(Verifier, WrongExitPortIsNoPath) {
  Deployment d(linear(3));
  const auto r = d.net.inject(
      header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 2, 1)), PortKey{0, 3});
  TagReport forged = r.reports[0];
  forged.outport = PortKey{1, 3};  // claims to exit at switch 1's edge
  EXPECT_EQ(verify_report(forged, d.table).status, VerifyStatus::kNoPath);
}

TEST(Verifier, MemoizedVerdictsBitIdenticalToUnmemoized) {
  // VerifyMemo is a pure fast path: on a duplicate-heavy stream with a
  // mix of passing, failing and forged reports, the memoized verdicts
  // must be bit-identical (status, matched pointer, epoch) to the
  // unmemoized ones — and duplicates must actually hit.
  Deployment d(fat_tree(4));
  EpochTables tables;
  tables.current = &d.table;

  std::vector<TagReport> stream;
  Rng rng(42);
  for (const auto& flow : workload::random_flows(d.topo, rng, 60)) {
    const auto r = d.net.inject(flow.header, flow.entry);
    for (const TagReport& rep : r.reports) {
      stream.push_back(rep);
      TagReport bad = rep;  // corrupted tag: same key fields but mismatch
      bad.tag |= BloomTag::of_hop(Hop{9, 99, 9}, bad.tag.bits());
      stream.push_back(bad);
      TagReport wrong_exit = rep;
      wrong_exit.outport = PortKey{rep.outport.sw, rep.outport.port + 1};
      stream.push_back(wrong_exit);
    }
  }
  // Duplicate the whole stream (Fig-9-style resampling of hot flows),
  // with varying seq to prove seq never affects memo keys or verdicts.
  const std::size_t unique = stream.size();
  for (std::size_t i = 0; i < unique; ++i) {
    TagReport dup = stream[i];
    dup.seq += 1000;
    stream.push_back(dup);
  }

  VerifyMemo memo;
  std::uint64_t hits = 0;
  for (const TagReport& rep : stream) {
    const Verdict plain = verify_epoch_aware(rep, tables);
    const Verdict memoized = verify_epoch_aware(rep, tables, &memo);
    EXPECT_EQ(memoized.status, plain.status);
    EXPECT_EQ(memoized.matched, plain.matched);  // same entry pointer
    EXPECT_EQ(memoized.epoch, plain.epoch);
    hits = memo.hits();
  }
  // Every report in the duplicated half was seen before; the first half
  // may also self-duplicate. Either way the memo must have fired a lot.
  EXPECT_GE(hits, unique / 2);
  EXPECT_EQ(memo.lookups(), stream.size());
}

// Tag-width sweep: verification stays false-positive-free at any width.
struct VerifierWidth : ::testing::TestWithParam<int> {};

TEST_P(VerifierWidth, ConsistentPlaneVerifiesAtAllWidths) {
  Deployment d(fat_tree(4), GetParam());
  const auto flows = workload::ping_all(d.topo);
  for (std::size_t i = 0; i < flows.size(); i += 7) {  // sample
    const auto r = d.net.inject(flows[i].header, flows[i].entry);
    for (const TagReport& rep : r.reports) {
      ASSERT_EQ(rep.tag.bits(), GetParam());
      EXPECT_TRUE(verify_report(rep, d.table).ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, VerifierWidth,
                         ::testing::Values(8, 16, 24, 32, 48, 64));

}  // namespace
}  // namespace veridp
