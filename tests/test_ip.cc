// IPv4 address / prefix unit tests.
#include "common/ip.hpp"

#include <gtest/gtest.h>

#include "common/types.hpp"

namespace veridp {
namespace {

TEST(Ipv4, OfBuildsHostOrderValue) {
  EXPECT_EQ(Ipv4::of(10, 0, 1, 2).value, 0x0A000102u);
  EXPECT_EQ(Ipv4::of(255, 255, 255, 255).value, 0xFFFFFFFFu);
  EXPECT_EQ(Ipv4::of(0, 0, 0, 0).value, 0u);
}

TEST(Ipv4, ParseRoundTrip) {
  for (const char* s : {"0.0.0.0", "10.0.1.2", "172.20.10.33", "255.255.255.255"}) {
    auto ip = parse_ipv4(s);
    ASSERT_TRUE(ip.has_value()) << s;
    EXPECT_EQ(to_string(*ip), s);
  }
}

TEST(Ipv4, ParseRejectsMalformed) {
  for (const char* s : {"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d",
                        "1..2.3", "1.2.3.4 ", "-1.2.3.4"}) {
    EXPECT_FALSE(parse_ipv4(s).has_value()) << s;
  }
}

TEST(Prefix, MaskValues) {
  EXPECT_EQ(Prefix::mask(0), 0u);
  EXPECT_EQ(Prefix::mask(8), 0xFF000000u);
  EXPECT_EQ(Prefix::mask(20), 0xFFFFF000u);
  EXPECT_EQ(Prefix::mask(32), 0xFFFFFFFFu);
}

TEST(Prefix, ConstructorZeroesHostBits) {
  const Prefix p{Ipv4::of(10, 1, 2, 3), 16};
  EXPECT_EQ(p.addr, Ipv4::of(10, 1, 0, 0).value);
  EXPECT_EQ(p, (Prefix{Ipv4::of(10, 1, 255, 255), 16}));
}

TEST(Prefix, ContainsAddress) {
  const Prefix p{Ipv4::of(10, 0, 0, 0), 8};
  EXPECT_TRUE(p.contains(Ipv4::of(10, 63, 16, 1)));
  EXPECT_FALSE(p.contains(Ipv4::of(11, 0, 0, 1)));
  EXPECT_TRUE(Prefix{}.contains(Ipv4::of(1, 2, 3, 4)));  // /0 contains all
}

TEST(Prefix, ContainsPrefixIsPartialOrder) {
  const Prefix a{Ipv4::of(10, 0, 0, 0), 8};
  const Prefix b{Ipv4::of(10, 1, 0, 0), 16};
  const Prefix c{Ipv4::of(11, 0, 0, 0), 8};
  EXPECT_TRUE(a.contains(b));
  EXPECT_FALSE(b.contains(a));
  EXPECT_FALSE(a.contains(c));
  EXPECT_TRUE(a.contains(a));  // reflexive
}

TEST(PortKey, FormattingAndDropPort) {
  EXPECT_EQ(to_string(PortKey{3, 2}), "<S3, 2>");
  EXPECT_EQ(to_string(PortKey{3, kDropPort}), "<S3, _|_>");
  EXPECT_EQ(to_string(Hop{1, 2, 3}), "<1, S2, 3>");
  EXPECT_EQ(to_string(Hop{1, 2, kDropPort}), "<1, S2, _|_>");
}

TEST(PortKey, OrderingAndHash) {
  const PortKey a{1, 2}, b{1, 3}, c{2, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_NE(std::hash<PortKey>{}(a), std::hash<PortKey>{}(b));
}

// Property sweep: every address inside a prefix is contained; the first
// address outside is not.
class PrefixSweep : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(PrefixSweep, ContainmentBoundary) {
  const std::uint8_t len = GetParam();
  const Prefix p{Ipv4::of(192, 168, 4, 0), len};
  EXPECT_TRUE(p.contains(Ipv4{p.addr}));
  if (len > 0) {
    const std::uint32_t size = len == 0 ? 0 : (1u << (32 - len));
    EXPECT_TRUE(p.contains(Ipv4{p.addr + size - 1}));
    EXPECT_FALSE(p.contains(Ipv4{p.addr + size}));
  }
}

INSTANTIATE_TEST_SUITE_P(AllLengths, PrefixSweep,
                         ::testing::Values(1, 4, 8, 12, 16, 20, 24, 28, 31));

}  // namespace
}  // namespace veridp
