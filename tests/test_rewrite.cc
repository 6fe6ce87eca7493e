// Header-rewrite extension tests (paper §8 future work #1): BDD image
// computation, set-field data-plane semantics, and end-to-end
// verification of NAT-style deployments — including detection of a
// corrupted rewrite.
#include <gtest/gtest.h>

#include "controller/routing.hpp"
#include "dataplane/fault.hpp"
#include "flow/walk.hpp"
#include "testutil.hpp"
#include "veridp/path_builder.hpp"
#include "veridp/verifier.hpp"

namespace veridp {
namespace {

using testutil::header;

// ---- BDD existential quantification ----------------------------------

TEST(BddExists, ForgettingAFieldFreesItsBits) {
  BddManager m(8);
  // f = (x0..x3 == 0b1010) AND x5.
  const BddRef f = m.apply_and(m.cube(0, 0b10100000, 8, 4), m.var(5));
  const BddRef g = m.exists(f, 0, 4);  // forget the first nibble
  EXPECT_EQ(g, m.var(5));
  EXPECT_DOUBLE_EQ(m.sat_count(g), 128.0);
  // Quantifying variables not in the support is a no-op.
  EXPECT_EQ(m.exists(f, 6, 2), f);
  // Quantifying everything yields TRUE for satisfiable f.
  EXPECT_EQ(m.exists(f, 0, 8), kBddTrue);
  EXPECT_EQ(m.exists(kBddFalse, 0, 8), kBddFalse);
}

TEST(BddExists, AgreesWithSemantics) {
  BddManager m(10);
  Rng rng(17);
  for (int round = 0; round < 30; ++round) {
    // Random function over 10 vars.
    BddRef f = kBddFalse;
    for (int i = 0; i < 5; ++i) {
      BddRef c = kBddTrue;
      for (int j = 0; j < 3; ++j) {
        const int v = static_cast<int>(rng.index(10));
        c = m.apply_and(c, rng.chance(0.5) ? m.var(v) : m.nvar(v));
      }
      f = m.apply_or(f, c);
    }
    const int first = static_cast<int>(rng.index(8));
    const int count = 1 + static_cast<int>(rng.index(3));
    const BddRef g = m.exists(f, first, count);
    // ∃-semantics: g(a) == OR over assignments of the quantified vars.
    for (int t = 0; t < 50; ++t) {
      std::vector<bool> bits(10);
      for (auto&& b : bits) b = rng.chance(0.5);
      bool expect = false;
      for (int v = 0; v < (1 << count) && !expect; ++v) {
        std::vector<bool> probe = bits;
        for (int j = 0; j < count; ++j)
          probe[static_cast<std::size_t>(first + j)] = (v >> j) & 1;
        expect = expect || m.eval(f, probe);
      }
      EXPECT_EQ(m.eval(g, bits), expect);
    }
  }
}

// ---- HeaderSet images --------------------------------------------------

TEST(SetField, ImageSemantics) {
  HeaderSpace space;
  const HeaderSet src10 =
      space.ip_prefix(Field::SrcIp, Prefix{Ipv4::of(10, 0, 0, 0), 8}) &
      space.field_eq(Field::DstPort, 80);
  const Ipv4 server = Ipv4::of(192, 168, 1, 1);
  const HeaderSet image = src10.set_field(Field::DstIp, server.value);

  // Every image member has the rewritten field...
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    auto h = image.sample(rng);
    ASSERT_TRUE(h);
    EXPECT_EQ(h->dst_ip, server);
    EXPECT_EQ(h->dst_port, 80);
    EXPECT_TRUE((Prefix{Ipv4::of(10, 0, 0, 0), 8}).contains(h->src_ip));
  }
  // ...and membership matches the pre-image exactly.
  PacketHeader h = header(Ipv4::of(10, 1, 2, 3), server, 80);
  EXPECT_TRUE(image.contains(h));
  h.src_ip = Ipv4::of(11, 1, 2, 3);  // not in the pre-image
  EXPECT_FALSE(image.contains(h));
  // Cardinality: the dst-ip dimension collapses to a single value.
  EXPECT_DOUBLE_EQ(image.count(), src10.count() / std::exp2(32));
}

TEST(SetField, RewriteAppliesInOrderAndToSets) {
  Rewrite rw;
  rw.set(Field::DstIp, Ipv4::of(1, 1, 1, 1).value)
      .set(Field::DstPort, 8080)
      .set(Field::DstIp, Ipv4::of(2, 2, 2, 2).value);  // later set wins
  PacketHeader h = header(Ipv4::of(10, 0, 0, 1), Ipv4::of(9, 9, 9, 9), 80);
  rw.apply(h);
  EXPECT_EQ(h.dst_ip, Ipv4::of(2, 2, 2, 2));
  EXPECT_EQ(h.dst_port, 8080);

  HeaderSpace space;
  const HeaderSet image = rw.apply_to_set(space.all());
  EXPECT_TRUE(image.contains(h));
  EXPECT_DOUBLE_EQ(image.count(), std::exp2(104 - 32 - 16));
}

// ---- Data plane ----------------------------------------------------------

TEST(RewriteDataPlane, SwitchAppliesSetField) {
  Switch sw(0, 3);
  Match any = Match::any();
  sw.config().table.add(FlowRule{
      1, 10, any,
      Action::output_rewrite(2, Rewrite::dst_ip(Ipv4::of(192, 168, 0, 9)))});
  PacketHeader h = header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 1, 1));
  EXPECT_EQ(sw.forward(h, 1), 2u);
  EXPECT_EQ(h.dst_ip, Ipv4::of(192, 168, 0, 9));
}

// ---- End to end: a DNAT gateway ------------------------------------------

// Chain of 3 switches; the middle one DNATs traffic aimed at a virtual
// IP (10.0.9.9) to the real server (10.0.2.1) behind switch 2.
struct NatDeployment {
  NatDeployment() : topo(linear(3)), controller(topo), net(topo) {
    routing::install_shortest_paths(controller);
    Match vip = Match::dst_prefix(Prefix{Ipv4::of(10, 0, 9, 9), 32});
    // Route the virtual IP toward the NAT switch, which rewrites it to
    // the real server and forwards on.
    controller.add_rule(0, 100, vip, Action::output(2));
    controller.add_rule(
        1, 100, vip,
        Action::output_rewrite(2, Rewrite::dst_ip(Ipv4::of(10, 0, 2, 1))));
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

TEST(RewriteEndToEnd, NatFlowVerifies) {
  NatDeployment d;
  const PacketHeader to_vip =
      header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 9, 9), 443);
  const auto r = d.net.inject(to_vip, PortKey{0, 3});
  ASSERT_EQ(r.disposition, Disposition::kDelivered);
  EXPECT_EQ(r.exit, (PortKey{2, 3}));  // the real server's port
  ASSERT_EQ(r.reports.size(), 1u);
  // The report carries the REWRITTEN header...
  EXPECT_EQ(r.reports[0].header.dst_ip, Ipv4::of(10, 0, 2, 1));
  // ...and verifies against the image-carrying path table.
  EXPECT_TRUE(verify_report(r.reports[0], d.table).ok());
}

TEST(RewriteEndToEnd, NonNatTrafficStillVerifies) {
  NatDeployment d;
  for (std::uint8_t dst : {0, 1, 2}) {
    const PacketHeader h = header(Ipv4::of(10, 0, 1, 1),
                                  Ipv4::of(10, 0, dst, 1), 80);
    const auto entry = d.topo.edge_port_for(h.src_ip);
    ASSERT_TRUE(entry);
    const auto r = d.net.inject(h, *entry);
    for (const TagReport& rep : r.reports)
      EXPECT_TRUE(verify_report(rep, d.table).ok());
  }
}

namespace {

// Replaces the NAT rule's target in the PHYSICAL table only.
void corrupt_nat_target(Network& net, Ipv4 new_target) {
  auto& table = net.at(1).config().table;
  const FlowRule* nat = nullptr;
  for (const FlowRule& r : table.rules())
    if (!r.action.rewrite.empty()) nat = &r;
  ASSERT_NE(nat, nullptr);
  FlowRule bad = *nat;
  bad.action = Action::output_rewrite(2, Rewrite::dst_ip(new_target));
  table.remove(bad.id);
  table.add(bad);
}

}  // namespace

TEST(RewriteEndToEnd, CorruptedNatTargetIsDetected) {
  NatDeployment d;
  // Fault: the switch rewrites to an address outside any configured
  // destination; the packet blackholes at switch 2, whose drop pair has
  // no entry admitting this header.
  corrupt_nat_target(d.net, Ipv4::of(10, 0, 77, 77));
  const PacketHeader to_vip =
      header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 9, 9), 443);
  const auto r = d.net.inject(to_vip, PortKey{0, 3});
  EXPECT_EQ(r.disposition, Disposition::kDropped);
  ASSERT_FALSE(r.reports.empty());
  EXPECT_FALSE(verify_report(r.reports.back(), d.table).ok());
}

TEST(RewriteEndToEnd, AliasedCorruptionIsAKnownBlindSpot) {
  // If the corrupted target ALIASES legitimate traffic — here 10.0.2.77,
  // which direct (non-NAT) flows may also carry over the very same hop
  // sequence — the exit header + tag are indistinguishable from a
  // consistent packet's, and verification passes. This is precisely the
  // ambiguity that made the paper defer rewrites (§1 limitation 1, §8):
  // exit-header verification cannot recover what the header USED to be.
  // The test pins the limitation down so a future entry-header echo
  // (e.g. carrying the 14-bit inport AND an entry-header digest) has a
  // spec to beat.
  NatDeployment d;
  corrupt_nat_target(d.net, Ipv4::of(10, 0, 2, 77));
  const PacketHeader to_vip =
      header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 9, 9), 443);
  const auto r = d.net.inject(to_vip, PortKey{0, 3});
  ASSERT_EQ(r.disposition, Disposition::kDelivered);
  EXPECT_TRUE(verify_report(r.reports.back(), d.table).ok())
      << "documented blind spot";
}

TEST(RewriteEndToEnd, DroppedRewriteIsDetected) {
  NatDeployment d;
  // Fault: the set-field action is lost; the packet keeps dst 10.0.9.9
  // and is still forwarded (broader /24 route)... on the chain the VIP
  // has no covering route at switch 2, so it blackholes there.
  auto& table = d.net.at(1).config().table;
  const FlowRule* nat = nullptr;
  for (const FlowRule& r : table.rules())
    if (!r.action.rewrite.empty()) nat = &r;
  ASSERT_NE(nat, nullptr);
  FlowRule bad = *nat;
  bad.action = Action::output(2);  // rewrite lost
  table.remove(nat->id);
  table.add(bad);

  const PacketHeader to_vip =
      header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 9, 9), 443);
  const auto r = d.net.inject(to_vip, PortKey{0, 3});
  ASSERT_FALSE(r.reports.empty());
  EXPECT_FALSE(verify_report(r.reports.back(), d.table).ok());
}

TEST(RewriteEndToEnd, LogicalWalkFollowsRewrites) {
  NatDeployment d;
  const PacketHeader to_vip =
      header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 9, 9), 443);
  const auto walk = logical_walk(d.topo, d.controller.logical_configs(),
                                 PortKey{0, 3}, to_vip);
  ASSERT_EQ(walk.size(), 3u);
  EXPECT_EQ(walk.back().sw, 2u);
  EXPECT_EQ(walk.back().out, 3u);  // delivered at the real server
  // And it matches the data plane.
  const auto r = d.net.inject(to_vip, PortKey{0, 3});
  EXPECT_EQ(r.path, walk);
}

}  // namespace
}  // namespace veridp
