// Bloom-filter tag tests: no false negatives (ever), OR composition,
// width sweep for false-positive behaviour.
#include "bloom/bloom.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/murmur3.hpp"
#include "common/rng.hpp"

namespace veridp {
namespace {

Hop random_hop(Rng& rng) {
  return Hop{static_cast<PortId>(rng.uniform(1, 48)),
             static_cast<SwitchId>(rng.uniform(0, 200)),
             static_cast<PortId>(rng.uniform(1, 48))};
}

TEST(BloomTag, StartsEmpty) {
  const BloomTag t(16);
  EXPECT_TRUE(t.zero());
  EXPECT_EQ(t.popcount(), 0);
  EXPECT_EQ(t.bits(), 16);
  EXPECT_EQ(t.str(), "0000000000000000");
}

TEST(BloomTag, InsertSetsAtMostThreeBits) {
  BloomTag t(64);
  t.insert(Hop{1, 2, 3});
  EXPECT_GE(t.popcount(), 1);
  EXPECT_LE(t.popcount(), BloomTag::kNumHashes);
}

TEST(BloomTag, NoFalseNegatives) {
  Rng rng(11);
  for (int bits : {8, 16, 32, 64}) {
    for (int trial = 0; trial < 50; ++trial) {
      BloomTag t(bits);
      std::vector<Hop> hops;
      for (int i = 0; i < 6; ++i) {
        hops.push_back(random_hop(rng));
        t.insert(hops.back());
      }
      for (const Hop& h : hops)
        EXPECT_TRUE(t.may_contain(h)) << "bits=" << bits;
    }
  }
}

TEST(BloomTag, OfHopEqualsInsert) {
  const Hop h{3, 7, 1};
  BloomTag t(16);
  t.insert(h);
  EXPECT_EQ(t, BloomTag::of_hop(h, 16));
}

TEST(BloomTag, OrIsUnion) {
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    const Hop a = random_hop(rng), b = random_hop(rng);
    const BloomTag ta = BloomTag::of_hop(a, 16);
    const BloomTag tb = BloomTag::of_hop(b, 16);
    const BloomTag both = ta | tb;
    EXPECT_TRUE(both.may_contain(a));
    EXPECT_TRUE(both.may_contain(b));
    BloomTag acc(16);
    acc |= ta;
    acc |= tb;
    EXPECT_EQ(acc, both);
  }
}

TEST(BloomTag, OrIsCommutativeAssociativeIdempotent) {
  Rng rng(31);
  const BloomTag a = BloomTag::of_hop(random_hop(rng), 16);
  const BloomTag b = BloomTag::of_hop(random_hop(rng), 16);
  const BloomTag c = BloomTag::of_hop(random_hop(rng), 16);
  EXPECT_EQ((a | b), (b | a));
  EXPECT_EQ(((a | b) | c), (a | (b | c)));
  EXPECT_EQ((a | a), a);
}

TEST(BloomTag, DistinctHopsUsuallyDistinctTags) {
  // Not a strict guarantee, but with 64 bits, distinct hops should
  // nearly always produce distinct masks.
  Rng rng(41);
  int collisions = 0;
  for (int t = 0; t < 500; ++t) {
    const Hop a = random_hop(rng);
    Hop b = random_hop(rng);
    if (a == b) continue;
    if (BloomTag::of_hop(a, 64) == BloomTag::of_hop(b, 64)) ++collisions;
  }
  EXPECT_LT(collisions, 5);
}

TEST(BloomTag, DropPortHopIsEncodable) {
  BloomTag t(16);
  const Hop drop{3, 9, kDropPort};
  t.insert(drop);
  EXPECT_TRUE(t.may_contain(drop));
  EXPECT_FALSE(t.zero());
}

TEST(BloomTag, ClearResets) {
  BloomTag t(16);
  t.insert(Hop{1, 1, 2});
  EXPECT_FALSE(t.zero());
  t.clear();
  EXPECT_TRUE(t.zero());
}

// False-positive rate must decrease with filter width (the Figure-12
// mechanism). We measure P[random absent hop passes] for a 5-hop tag.
class BloomFp : public ::testing::TestWithParam<int> {};

TEST_P(BloomFp, FalsePositiveRateReasonable) {
  const int bits = GetParam();
  Rng rng(static_cast<std::uint64_t>(bits) * 1000 + 5);
  int fp = 0;
  const int kTrials = 2000;
  for (int t = 0; t < kTrials; ++t) {
    BloomTag tag(bits);
    std::vector<Hop> in;
    for (int i = 0; i < 5; ++i) {
      in.push_back(random_hop(rng));
      tag.insert(in.back());
    }
    Hop probe = random_hop(rng);
    while (std::find(in.begin(), in.end(), probe) != in.end())
      probe = random_hop(rng);
    if (tag.may_contain(probe)) ++fp;
  }
  const double rate = static_cast<double>(fp) / kTrials;
  // Loose analytic envelope: k=3 hashes, 5 elements.
  if (bits <= 8) {
    EXPECT_GT(rate, 0.2);
  }
  if (bits >= 32) {
    EXPECT_LT(rate, 0.25);
  }
  if (bits >= 64) {
    EXPECT_LT(rate, 0.08);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BloomFp, ::testing::Values(8, 16, 24, 32, 48, 64));

// Monotonicity across the Figure-12 sweep, aggregated.
TEST(BloomTag, WiderFiltersHaveFewerFalsePositives) {
  Rng rng(77);
  std::vector<int> widths{8, 16, 32, 64};
  std::vector<double> rates;
  for (int bits : widths) {
    int fp = 0;
    const int kTrials = 3000;
    Rng local(1234);  // same hop sequence for every width
    for (int t = 0; t < kTrials; ++t) {
      BloomTag tag(bits);
      std::vector<Hop> in;
      for (int i = 0; i < 5; ++i) {
        in.push_back(random_hop(local));
        tag.insert(in.back());
      }
      Hop probe = random_hop(local);
      while (std::find(in.begin(), in.end(), probe) != in.end())
        probe = random_hop(local);
      if (tag.may_contain(probe)) ++fp;
    }
    rates.push_back(static_cast<double>(fp) / kTrials);
  }
  for (std::size_t i = 1; i < rates.size(); ++i)
    EXPECT_LT(rates[i], rates[i - 1] + 0.02) << "width " << widths[i];
  EXPECT_LT(rates.back(), rates.front());
}

// BF(hop) against §5's formula written out with `%`, at every width: the
// power-of-two widths take a mask instead of the division, which must not
// change a bit.
TEST(BloomTag, HopBitsEqualModuloFormulaAtEveryWidth) {
  Rng rng(99);
  for (int bits = 1; bits <= 64; ++bits) {
    for (int i = 0; i < 500; ++i) {
      Hop h = random_hop(rng);
      if (i == 0) h.out = kDropPort;
      const struct {
        std::uint32_t in, sw, out;
      } wire{h.in, h.sw, h.out};
      const std::uint32_t m = murmur3_32(wire);
      std::uint64_t expect = 0;
      for (std::uint32_t k = 0; k < BloomTag::kNumHashes; ++k) {
        const std::uint32_t g = (m & 0xffff) + k * (m >> 16);
        expect |= std::uint64_t{1} << (g % static_cast<std::uint32_t>(bits));
      }
      ASSERT_EQ(BloomTag::of_hop(h, bits).value(), expect)
          << "width " << bits << " hop " << to_string(h);
    }
  }
}

TEST(BloomTag, OfPathEqualsIncrementalInserts) {
  Rng rng(7);
  std::vector<Hop> hops;
  BloomTag incremental(16);
  for (int i = 0; i < 300; ++i) {
    hops.push_back(random_hop(rng));
    incremental.insert(hops.back());
  }
  EXPECT_EQ(BloomTag::of_path(hops.data(), hops.size(), 16), incremental);
  EXPECT_EQ(BloomTag::of_path(hops.data(), 0, 16), BloomTag(16));
}

}  // namespace
}  // namespace veridp
