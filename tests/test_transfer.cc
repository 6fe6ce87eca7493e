// Transfer-predicate tests (§4.1): shadow subtraction, the three-term
// drop predicate, and the central agreement property — for any header,
// the data-plane forwarding decision equals the unique port whose
// transfer predicate contains the header.
#include "flow/transfer.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dataplane/switch.hpp"

namespace veridp {
namespace {

PacketHeader to(Ipv4 dst, std::uint16_t dport = 80, Ipv4 src = Ipv4::of(9, 9, 9, 9)) {
  PacketHeader h;
  h.src_ip = src;
  h.dst_ip = dst;
  h.proto = kProtoTcp;
  h.src_port = 1000;
  h.dst_port = dport;
  return h;
}

TEST(Transfer, ForwardPredicatesRespectPriority) {
  HeaderSpace space;
  SwitchConfig cfg;
  cfg.table.add(FlowRule{1, 8,
                         Match::dst_prefix(Prefix{Ipv4::of(10, 0, 0, 0), 8}),
                         Action::output(1)});
  cfg.table.add(FlowRule{2, 24,
                         Match::dst_prefix(Prefix{Ipv4::of(10, 0, 2, 0), 24}),
                         Action::output(2)});
  const auto tf = TransferFunction::compute(space, cfg, 3);
  EXPECT_TRUE(tf.fwd(1, 2).contains(to(Ipv4::of(10, 0, 2, 5))));
  EXPECT_FALSE(tf.fwd(1, 1).contains(to(Ipv4::of(10, 0, 2, 5))));  // shadowed
  EXPECT_TRUE(tf.fwd(1, 1).contains(to(Ipv4::of(10, 7, 7, 7))));
  EXPECT_TRUE(tf.fwd(1, 3).empty());
  EXPECT_TRUE(tf.fwd_drop(1).contains(to(Ipv4::of(11, 0, 0, 1))));  // miss
}

TEST(Transfer, DropRuleContributesToDropPredicate) {
  HeaderSpace space;
  SwitchConfig cfg;
  cfg.table.add(FlowRule{1, 50,
                         Match::dst_prefix(Prefix{Ipv4::of(10, 0, 0, 0), 8}),
                         Action::drop()});
  cfg.table.add(FlowRule{2, 1, Match::any(), Action::output(1)});
  const auto tf = TransferFunction::compute(space, cfg, 2);
  EXPECT_TRUE(tf.fwd_drop(1).contains(to(Ipv4::of(10, 1, 1, 1))));
  EXPECT_FALSE(tf.fwd_drop(1).contains(to(Ipv4::of(11, 1, 1, 1))));
  EXPECT_TRUE(tf.transfer(1, kDropPort).contains(to(Ipv4::of(10, 1, 1, 1))));
}

TEST(Transfer, InboundAclBlocksTransfer) {
  HeaderSpace space;
  SwitchConfig cfg;
  cfg.table.add(FlowRule{1, 1, Match::any(), Action::output(2)});
  Match bad;
  bad.src = Prefix{Ipv4::of(66, 0, 0, 0), 8};
  cfg.in_acls[1] = Acl{}.deny(bad);
  const auto tf = TransferFunction::compute(space, cfg, 2);
  const PacketHeader blocked = to(Ipv4::of(10, 0, 0, 1), 80, Ipv4::of(66, 1, 2, 3));
  const PacketHeader fine = to(Ipv4::of(10, 0, 0, 1));
  EXPECT_FALSE(tf.transfer(1, 2).contains(blocked));
  EXPECT_TRUE(tf.transfer(1, 2).contains(fine));
  // Drop predicate term 1: ¬P_in.
  EXPECT_TRUE(tf.transfer(1, kDropPort).contains(blocked));
  // Other ports are unaffected by port 1's in-ACL.
  EXPECT_TRUE(tf.transfer(2, 2).contains(blocked));
}

TEST(Transfer, OutboundAclBlocksAndDrops) {
  HeaderSpace space;
  SwitchConfig cfg;
  cfg.table.add(FlowRule{1, 1, Match::any(), Action::output(2)});
  Match ssh;
  ssh.dst_port = 22;
  cfg.out_acls[2] = Acl{}.deny(ssh);
  const auto tf = TransferFunction::compute(space, cfg, 2);
  EXPECT_FALSE(tf.transfer(1, 2).contains(to(Ipv4::of(10, 0, 0, 1), 22)));
  EXPECT_TRUE(tf.transfer(1, 2).contains(to(Ipv4::of(10, 0, 0, 1), 80)));
  // Drop predicate term 3: forwarded but filtered by out-ACL.
  EXPECT_TRUE(tf.transfer(1, kDropPort).contains(to(Ipv4::of(10, 0, 0, 1), 22)));
}

TEST(Transfer, ActiveOutPorts) {
  HeaderSpace space;
  SwitchConfig cfg;
  cfg.table.add(FlowRule{1, 8,
                         Match::dst_prefix(Prefix{Ipv4::of(10, 0, 0, 0), 8}),
                         Action::output(3)});
  const auto tf = TransferFunction::compute(space, cfg, 4);
  EXPECT_EQ(tf.active_out_ports(), (std::vector<PortId>{3}));
}

// ---- The partition/agreement property -------------------------------------

// Both fields 8 bytes wide: no padding, so gtest's byte printout (and
// the ctest name) is the same on every test discovery.
struct AgreementCase {
  std::uint64_t seed;
  std::int64_t num_rules;
};

class TransferAgreement : public ::testing::TestWithParam<AgreementCase> {
 protected:
  // Builds a random switch config over 4 ports.
  SwitchConfig random_config(Rng& rng, std::int64_t num_rules) {
    SwitchConfig cfg;
    for (std::int64_t i = 0; i < num_rules; ++i) {
      Match m;
      m.dst = Prefix{Ipv4::of(10, static_cast<std::uint8_t>(rng.uniform(0, 3)),
                              static_cast<std::uint8_t>(rng.uniform(0, 3)), 0),
                     static_cast<std::uint8_t>(rng.uniform(8, 26))};
      if (rng.chance(0.2))
        m.dst_port = static_cast<std::uint16_t>(rng.uniform(20, 25));
      if (rng.chance(0.25))
        m.in_port = static_cast<PortId>(rng.uniform(1, 4));
      const Action a = rng.chance(0.15)
                           ? Action::drop()
                           : Action::output(static_cast<PortId>(rng.uniform(1, 4)));
      cfg.table.add(FlowRule{static_cast<RuleId>(i + 1),
                             static_cast<std::int32_t>(rng.uniform(0, 100)), m,
                             a});
    }
    if (rng.chance(0.5)) {
      Match bad;
      bad.src = Prefix{Ipv4::of(66, 0, 0, 0), 8};
      cfg.in_acls[1] = Acl{}.deny(bad);
    }
    if (rng.chance(0.5)) {
      Match ssh;
      ssh.dst_port = 22;
      cfg.out_acls[2] = Acl{}.deny(ssh);
    }
    return cfg;
  }

  PacketHeader random_header(Rng& rng) {
    PacketHeader h;
    h.src_ip = rng.chance(0.3)
                   ? Ipv4::of(66, 1, 2, 3)
                   : Ipv4::of(10, static_cast<std::uint8_t>(rng.uniform(0, 3)),
                              0, 1);
    h.dst_ip = Ipv4::of(10, static_cast<std::uint8_t>(rng.uniform(0, 3)),
                        static_cast<std::uint8_t>(rng.uniform(0, 3)),
                        static_cast<std::uint8_t>(rng.uniform(0, 255)));
    h.proto = kProtoTcp;
    h.src_port = 1;
    h.dst_port = static_cast<std::uint16_t>(rng.uniform(20, 25));
    return h;
  }
};

TEST_P(TransferAgreement, TransferPredicatesPartitionAndAgreeWithSwitch) {
  const auto [seed, num_rules] = GetParam();
  HeaderSpace space;
  Rng rng(seed);
  const PortId n = 4;
  const SwitchConfig cfg = random_config(rng, num_rules);
  const auto tf = TransferFunction::compute(space, cfg, n);

  Switch sw(0, n);
  sw.config() = cfg;

  for (PortId x = 1; x <= n; ++x) {
    // Partition: every header transfers to exactly one target (incl ⊥).
    HeaderSet acc = tf.transfer(x, kDropPort);
    for (PortId y = 1; y <= n; ++y) {
      const HeaderSet t = tf.transfer(x, y);
      EXPECT_TRUE((acc & t).empty()) << "overlap at x=" << x << " y=" << y;
      acc |= t;
    }
    EXPECT_TRUE(acc.is_all()) << "not exhaustive at x=" << x;

    // Agreement with the concrete data-plane pipeline.
    for (int t = 0; t < 40; ++t) {
      const PacketHeader h = random_header(rng);
      const PortId y = sw.forward_decision(h, x);
      EXPECT_TRUE(tf.transfer(x, y).contains(h))
          << "x=" << x << " y=" << y << " " << h.str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransferAgreement,
                         ::testing::Values(AgreementCase{1, 0},
                                           AgreementCase{2, 1},
                                           AgreementCase{3, 5},
                                           AgreementCase{4, 10},
                                           AgreementCase{5, 20},
                                           AgreementCase{6, 40}));

}  // namespace
}  // namespace veridp
