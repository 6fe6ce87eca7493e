// BDD engine tests: Boolean-algebra laws (property-swept over random
// formulas), canonicity, counting, witnesses.
#include "bdd/bdd.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace veridp {
namespace {

TEST(Bdd, TerminalsAndLiterals) {
  BddManager m(4);
  EXPECT_TRUE(m.is_false(kBddFalse));
  EXPECT_TRUE(m.is_true(kBddTrue));
  const BddRef x0 = m.var(0);
  EXPECT_EQ(m.top_var(x0), 0);
  EXPECT_TRUE(m.eval(x0, {true, false, false, false}));
  EXPECT_FALSE(m.eval(x0, {false, true, true, true}));
  EXPECT_TRUE(m.eval(m.nvar(0), {false, false, false, false}));
}

TEST(Bdd, HashConsingGivesCanonicalForms) {
  BddManager m(4);
  const BddRef a = m.apply_and(m.var(0), m.var(1));
  const BddRef b = m.apply_and(m.var(1), m.var(0));
  EXPECT_EQ(a, b);  // commutativity => identical node
  const BddRef c = m.apply_or(m.apply_not(m.var(0)), m.apply_not(m.var(1)));
  EXPECT_EQ(m.apply_not(a), c);  // De Morgan => identical node
}

TEST(Bdd, BasicIdentities) {
  BddManager m(4);
  const BddRef x = m.var(2);
  EXPECT_EQ(m.apply_and(x, kBddTrue), x);
  EXPECT_EQ(m.apply_and(x, kBddFalse), kBddFalse);
  EXPECT_EQ(m.apply_or(x, kBddFalse), x);
  EXPECT_EQ(m.apply_or(x, kBddTrue), kBddTrue);
  EXPECT_EQ(m.apply_xor(x, x), kBddFalse);
  EXPECT_EQ(m.apply_diff(x, x), kBddFalse);
  EXPECT_EQ(m.apply_and(x, m.apply_not(x)), kBddFalse);
  EXPECT_EQ(m.apply_or(x, m.apply_not(x)), kBddTrue);
  EXPECT_EQ(m.apply_not(m.apply_not(x)), x);
}

TEST(Bdd, IteMatchesDefinition) {
  BddManager m(3);
  const BddRef f = m.var(0), g = m.var(1), h = m.var(2);
  const BddRef ite = m.ite(f, g, h);
  for (int bits = 0; bits < 8; ++bits) {
    const std::vector<bool> a{(bits & 1) != 0, (bits & 2) != 0,
                              (bits & 4) != 0};
    const bool expect = a[0] ? a[1] : a[2];
    EXPECT_EQ(m.eval(ite, a), expect) << bits;
  }
}

TEST(Bdd, SatCount) {
  BddManager m(10);
  EXPECT_DOUBLE_EQ(m.sat_count(kBddTrue), 1024.0);
  EXPECT_DOUBLE_EQ(m.sat_count(kBddFalse), 0.0);
  EXPECT_DOUBLE_EQ(m.sat_count(m.var(0)), 512.0);
  EXPECT_DOUBLE_EQ(m.sat_count(m.var(9)), 512.0);
  const BddRef x0_and_x5 = m.apply_and(m.var(0), m.var(5));
  EXPECT_DOUBLE_EQ(m.sat_count(x0_and_x5), 256.0);
  const BddRef x0_or_x5 = m.apply_or(m.var(0), m.var(5));
  EXPECT_DOUBLE_EQ(m.sat_count(x0_or_x5), 768.0);
}

TEST(Bdd, CubeEncodesPrefix) {
  BddManager m(8);
  // Constrain the top 3 of 8 bits to 0b101.
  const BddRef c = m.cube(0, 0b10100000, 8, 3);
  EXPECT_DOUBLE_EQ(m.sat_count(c), 32.0);
  EXPECT_TRUE(m.eval(c, {true, false, true, false, false, false, false, false}));
  EXPECT_FALSE(m.eval(c, {true, true, true, false, false, false, false, false}));
  // len 0 => unconstrained.
  EXPECT_EQ(m.cube(0, 0xFF, 8, 0), kBddTrue);
  // full-width cube has exactly one satisfying assignment.
  EXPECT_DOUBLE_EQ(m.sat_count(m.cube(0, 0x5A, 8, 8)), 1.0);
}

TEST(Bdd, PickOneReturnsWitness) {
  BddManager m(6);
  const BddRef f = m.apply_and(m.var(1), m.apply_not(m.var(4)));
  auto w = m.pick_one(f);
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(m.eval(f, *w));
  EXPECT_FALSE(m.pick_one(kBddFalse).has_value());
}

TEST(Bdd, PickRandomAlwaysSatisfies) {
  BddManager m(16);
  Rng rng(7);
  BddRef f = kBddFalse;
  // f = parity-ish structured formula
  for (int i = 0; i < 8; ++i)
    f = m.apply_or(f, m.apply_and(m.var(i), m.nvar(15 - i)));
  for (int t = 0; t < 200; ++t) {
    auto w = m.pick_random(f, [&rng] { return rng.chance(0.5); });
    ASSERT_TRUE(w.has_value());
    EXPECT_TRUE(m.eval(f, *w));
  }
}

TEST(Bdd, ImpliesIsSubset) {
  BddManager m(5);
  const BddRef small = m.apply_and(m.var(0), m.var(1));
  const BddRef big = m.var(0);
  EXPECT_TRUE(m.implies(small, big));
  EXPECT_FALSE(m.implies(big, small));
  EXPECT_TRUE(m.implies(kBddFalse, small));
  EXPECT_TRUE(m.implies(small, kBddTrue));
}

TEST(Bdd, SizeCountsDistinctNodes) {
  BddManager m(4);
  EXPECT_EQ(m.size(kBddTrue), 2u);  // terminals only
  EXPECT_GE(m.size(m.var(0)), 3u);
}

// ---- Property sweep: random formula algebra ---------------------------

// Both fields are 64-bit so the struct has no padding: gtest prints the
// raw bytes of a parameter into its ctest name, and padding bytes are
// uninitialised, which made the names differ from one discovery to the next.
struct AlgebraCase {
  std::uint64_t seed;
  std::int64_t num_vars;
};

class BddAlgebra : public ::testing::TestWithParam<AlgebraCase> {
 protected:
  // Builds a random formula as both a BDD and an eval function.
  BddRef random_formula(BddManager& m, Rng& rng, int depth) {
    if (depth == 0 || rng.chance(0.3)) {
      const int v = static_cast<int>(rng.index(static_cast<std::size_t>(m.num_vars())));
      return rng.chance(0.5) ? m.var(v) : m.nvar(v);
    }
    const BddRef a = random_formula(m, rng, depth - 1);
    const BddRef b = random_formula(m, rng, depth - 1);
    switch (rng.index(4)) {
      case 0: return m.apply_and(a, b);
      case 1: return m.apply_or(a, b);
      case 2: return m.apply_xor(a, b);
      default: return m.apply_diff(a, b);
    }
  }
};

TEST_P(BddAlgebra, LawsHoldOnRandomFormulas) {
  const auto [seed, nv] = GetParam();
  BddManager m(static_cast<int>(nv));
  Rng rng(seed);
  for (int round = 0; round < 20; ++round) {
    const BddRef a = random_formula(m, rng, 4);
    const BddRef b = random_formula(m, rng, 4);
    const BddRef c = random_formula(m, rng, 4);
    // Algebraic laws as canonical-form identities.
    EXPECT_EQ(m.apply_and(a, b), m.apply_and(b, a));
    EXPECT_EQ(m.apply_or(a, b), m.apply_or(b, a));
    EXPECT_EQ(m.apply_and(a, m.apply_or(b, c)),
              m.apply_or(m.apply_and(a, b), m.apply_and(a, c)));
    EXPECT_EQ(m.apply_not(m.apply_or(a, b)),
              m.apply_and(m.apply_not(a), m.apply_not(b)));
    EXPECT_EQ(m.apply_diff(a, b), m.apply_and(a, m.apply_not(b)));
    EXPECT_EQ(m.apply_xor(a, b),
              m.apply_or(m.apply_diff(a, b), m.apply_diff(b, a)));
    // Absorption and idempotence.
    EXPECT_EQ(m.apply_or(a, m.apply_and(a, b)), a);
    EXPECT_EQ(m.apply_and(a, a), a);
    // sat_count is consistent with inclusion-exclusion.
    EXPECT_NEAR(m.sat_count(m.apply_or(a, b)),
                m.sat_count(a) + m.sat_count(b) -
                    m.sat_count(m.apply_and(a, b)),
                1e-6);
  }
}

TEST_P(BddAlgebra, EvalAgreesWithSemantics) {
  const auto [seed, nv] = GetParam();
  BddManager m(static_cast<int>(nv));
  Rng rng(seed ^ 0xabcdef);
  const BddRef a = random_formula(m, rng, 5);
  const BddRef b = random_formula(m, rng, 5);
  const BddRef f_and = m.apply_and(a, b);
  const BddRef f_or = m.apply_or(a, b);
  const BddRef f_xor = m.apply_xor(a, b);
  for (int t = 0; t < 200; ++t) {
    std::vector<bool> bits(static_cast<std::size_t>(nv));
    for (auto&& bit : bits) bit = rng.chance(0.5);
    const bool ea = m.eval(a, bits), eb = m.eval(b, bits);
    EXPECT_EQ(m.eval(f_and, bits), ea && eb);
    EXPECT_EQ(m.eval(f_or, bits), ea || eb);
    EXPECT_EQ(m.eval(f_xor, bits), ea != eb);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, BddAlgebra,
    ::testing::Values(AlgebraCase{1, 6}, AlgebraCase{2, 6}, AlgebraCase{3, 10},
                      AlgebraCase{4, 10}, AlgebraCase{5, 16},
                      AlgebraCase{6, 16}, AlgebraCase{7, 24},
                      AlgebraCase{8, 32}));

// ---- Unique-table key collision regressions ---------------------------
//
// An earlier unique table keyed nodes by `var<<48 ^ low<<24 ^ high`, which
// collides as soon as an index field crosses 2^24. These tests pin the
// fixed property — full-triple identity — by injecting exactly the
// triple shapes that collided, via the raw-intern hook (no need to
// allocate 16M real nodes).

TEST(BddCollision, HighFieldOverflowTriplesStayDistinct) {
  BddManager m(4);
  // Old packed keys: (0<<48) ^ (1<<24) ^ 0x1000001 == 1 and
  //              (0<<48) ^ (2<<24) ^ 0x2000001 == 1 — same key, and the
  // old map would have returned the first node for the second triple.
  const BddRef a = m.intern_raw_for_test(0, 1, 0x1000001);
  const BddRef b = m.intern_raw_for_test(0, 2, 0x2000001);
  EXPECT_NE(a, b);
  // Idempotence: re-interning each triple yields the same ref.
  EXPECT_EQ(m.intern_raw_for_test(0, 1, 0x1000001), a);
  EXPECT_EQ(m.intern_raw_for_test(0, 2, 0x2000001), b);
}

TEST(BddCollision, VarFieldAliasingTriplesStayDistinct) {
  BddManager m(4);
  // Old packed keys: (1<<48) ^ (0<<24) ^ 2 and (0<<48) ^ ((1<<24)<<24) ^ 2
  // coincide (the low field shifted into the var field's bits).
  const BddRef a = m.intern_raw_for_test(1, 0, 2);
  const BddRef b = m.intern_raw_for_test(0, 1 << 24, 2);
  EXPECT_NE(a, b);
  EXPECT_EQ(m.intern_raw_for_test(1, 0, 2), a);
  EXPECT_EQ(m.intern_raw_for_test(0, 1 << 24, 2), b);
}

TEST(BddCollision, ManyCollidingShapesAllDistinct) {
  // A whole family mapping to old packed key 0x1: (0, i, i<<24 | 1).
  BddManager m(4);
  std::vector<BddRef> refs;
  for (BddRef i = 1; i <= 64; ++i)
    refs.push_back(m.intern_raw_for_test(0, i, (i << 24) | 1));
  for (std::size_t i = 0; i < refs.size(); ++i)
    for (std::size_t j = i + 1; j < refs.size(); ++j)
      ASSERT_NE(refs[i], refs[j]) << i << "," << j;
  for (BddRef i = 1; i <= 64; ++i)
    ASSERT_EQ(m.intern_raw_for_test(0, i, (i << 24) | 1),
              refs[static_cast<std::size_t>(i - 1)]);
}

TEST(BddCollision, DegradedHashKeepsCanonicityAndSemantics) {
  // Truncating every hash to 2 bits forces massive probe clustering; the
  // table must still behave identically because probes compare the full
  // triple, never the hash.
  BddManager good(8);
  BddManager bad(8);
  bad.degrade_hash_for_test(2);
  Rng rng(0xC0111De);
  std::vector<BddRef> gs, bs;
  for (int round = 0; round < 200; ++round) {
    const int v1 = static_cast<int>(rng.index(8));
    const int v2 = static_cast<int>(rng.index(8));
    const bool shape = rng.chance(0.5);  // one draw, applied to both
    const BddRef g =
        shape ? good.apply_or(good.var(v1), good.apply_and(good.var(v2),
                                                           good.nvar(v1)))
              : good.apply_xor(good.var(v1), good.var(v2));
    const BddRef b =
        shape ? bad.apply_or(bad.var(v1), bad.apply_and(bad.var(v2),
                                                        bad.nvar(v1)))
              : bad.apply_xor(bad.var(v1), bad.var(v2));
    gs.push_back(g);
    bs.push_back(b);
  }
  // Node creation order is deterministic, so refs must agree exactly.
  EXPECT_EQ(gs, bs);
  EXPECT_EQ(good.node_count(), bad.node_count());
}

TEST(BddEngines, ReservePreservesResultsAndGrowsCapacity) {
  BddManager m(16);
  const std::size_t before = m.unique_capacity();
  m.reserve(200000);
  EXPECT_GT(m.unique_capacity(), before);
  // 200k nodes fit under the 0.7 load factor without further growth.
  EXPECT_GE(m.unique_capacity() * 7, 200000u * 10);
  // Still canonical and correct after the pre-size.
  const BddRef a = m.apply_and(m.var(0), m.var(1));
  EXPECT_EQ(a, m.apply_and(m.var(1), m.var(0)));
  EXPECT_TRUE(m.eval(a, std::vector<bool>(16, true)));
}

TEST(BddEngines, CubeOntoMatchesApplyAndOfCubes) {
  BddManager m(24);
  Rng rng(0xCBE0);
  for (int t = 0; t < 50; ++t) {
    const std::uint64_t hi_bits = rng.uniform(0, 255);
    const std::uint64_t lo_bits = rng.uniform(0, 65535);
    const BddRef tail = m.cube(8, lo_bits, 16, 16);
    const BddRef chained = m.cube_onto(tail, 0, hi_bits, 8, 8);
    const BddRef applied = m.apply_and(m.cube(0, hi_bits, 8, 8), tail);
    ASSERT_EQ(chained, applied);
  }
}

}  // namespace
}  // namespace veridp
