// Randomized differential suite for the BDD engine: thousands of seeded
// op sequences (and/or/xor/diff/not/ite/exists/cube) are replayed
// against a brute-force truth-table oracle over <= 12 variables, on the
// engine as built and on the engine with a pathologically degraded hash.
// Every produced ref is expanded to its full truth table (memoized
// Shannon expansion — O(nodes), not O(2^n) evals) and compared bit-wise;
// canonicity is asserted as a bijection between truth tables and refs.
//
// The executable carries the `concurrency` label (the TSan preset runs
// it): the last tests hammer the read-side ops — including the
// shared_mutex-guarded sat_count memo — from many threads.
#include "bdd/bdd.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace veridp {
namespace {

constexpr int kMaxVars = 12;

// A truth table over n <= 12 variables: bit `idx` of the table is the
// formula's value under the assignment where variable v = bit v of idx.
// 2^12 bits = 64 words; tables over fewer variables use a prefix.
struct TT {
  std::array<std::uint64_t, 64> w{};
  int nvars = 0;

  static int words(int n) { return n <= 6 ? 1 : 1 << (n - 6); }
  static std::uint64_t word_mask(int n) {
    return n >= 6 ? ~0ULL : (1ULL << (1 << n)) - 1;
  }

  static TT falsum(int n) { return TT{{}, n}; }
  static TT verum(int n) {
    TT t{{}, n};
    for (int i = 0; i < words(n); ++i) t.w[static_cast<std::size_t>(i)] = ~0ULL;
    t.w[static_cast<std::size_t>(words(n) - 1)] = word_mask(n);
    return t;
  }
  static TT literal(int n, int v, bool positive) {
    TT t{{}, n};
    for (std::uint32_t idx = 0; idx < (1u << n); ++idx)
      if ((((idx >> v) & 1u) != 0) == positive) t.set(idx);
    return t;
  }

  bool get(std::uint32_t idx) const {
    return (w[idx >> 6] >> (idx & 63)) & 1u;
  }
  void set(std::uint32_t idx) { w[idx >> 6] |= 1ULL << (idx & 63); }

  friend bool operator==(const TT& a, const TT& b) {
    if (a.nvars != b.nvars) return false;
    for (int i = 0; i < words(a.nvars); ++i)
      if (a.w[static_cast<std::size_t>(i)] != b.w[static_cast<std::size_t>(i)])
        return false;
    return true;
  }
};

TT tt_binop(const TT& a, const TT& b, int op) {
  TT r{{}, a.nvars};
  for (int i = 0; i < TT::words(a.nvars); ++i) {
    const std::size_t s = static_cast<std::size_t>(i);
    switch (op) {
      case 0: r.w[s] = a.w[s] & b.w[s]; break;
      case 1: r.w[s] = a.w[s] | b.w[s]; break;
      case 2: r.w[s] = a.w[s] ^ b.w[s]; break;
      default: r.w[s] = a.w[s] & ~b.w[s]; break;
    }
  }
  return r;
}

TT tt_not(const TT& a) {
  TT r{{}, a.nvars};
  for (int i = 0; i < TT::words(a.nvars); ++i)
    r.w[static_cast<std::size_t>(i)] = ~a.w[static_cast<std::size_t>(i)];
  r.w[static_cast<std::size_t>(TT::words(a.nvars) - 1)] &=
      TT::word_mask(a.nvars);
  return r;
}

TT tt_exists(TT t, int first_var, int count) {
  for (int v = first_var; v < first_var + count && v < t.nvars; ++v) {
    TT out = TT::falsum(t.nvars);
    for (std::uint32_t idx = 0; idx < (1u << t.nvars); ++idx)
      if (t.get(idx) || t.get(idx ^ (1u << v))) out.set(idx);
    t = out;
  }
  return t;
}

TT tt_cube(int n, int first_var, std::uint64_t bits, int width, int len) {
  TT t = TT::verum(n);
  // cube() reads the top `len` bits of `bits` MSB-first within `width`.
  for (int i = 0; i < len; ++i) {
    const bool bit = (bits >> (width - 1 - i)) & 1u;
    t = tt_binop(t, TT::literal(n, first_var + i, bit), 0);
  }
  return t;
}

// Memoized Shannon expansion BDD -> truth table. Canonical refs make the
// memo safe for the whole manager lifetime.
struct Expander {
  const BddManager& m;
  int nvars;
  std::unordered_map<BddRef, TT> memo;

  const TT& expand(BddRef r) {
    auto it = memo.find(r);
    if (it != memo.end()) return it->second;
    TT t{{}, nvars};
    if (r == kBddFalse) {
      t = TT::falsum(nvars);
    } else if (r == kBddTrue) {
      t = TT::verum(nvars);
    } else {
      const int v = m.top_var(r);
      const TT pos = TT::literal(nvars, v, true);
      const TT lo = expand(m.low_of(r));
      const TT hi = expand(m.high_of(r));
      t = tt_binop(tt_binop(pos, hi, 0), tt_binop(lo, pos, 3), 1);
    }
    return memo.emplace(r, t).first->second;
  }
};

// One op drawn for a sequence step. All random draws happen ONCE here so
// the same op can be replayed against several engines and the oracle.
struct Step {
  int kind;  // 0..3 binop, 4 not, 5 ite, 6 exists, 7 cube
  std::size_t i, j, k;
  int var, count, width, len;
  std::uint64_t bits;

  static Step draw(Rng& rng, std::size_t pool, int nvars) {
    Step s{};
    s.kind = static_cast<int>(rng.index(8));
    s.i = rng.index(pool);
    s.j = rng.index(pool);
    s.k = rng.index(pool);
    s.var = static_cast<int>(rng.index(static_cast<std::size_t>(nvars)));
    s.count = 1 + static_cast<int>(rng.index(3));
    s.width = 1 + static_cast<int>(
                      rng.index(static_cast<std::size_t>(nvars - s.var)));
    s.len = 1 + static_cast<int>(rng.index(static_cast<std::size_t>(s.width)));
    s.bits = rng.uniform(0, (1ULL << s.width) - 1);
    return s;
  }
};

BddRef run_step(BddManager& m, const std::vector<BddRef>& pool,
                const Step& s) {
  switch (s.kind) {
    case 0: return m.apply_and(pool[s.i], pool[s.j]);
    case 1: return m.apply_or(pool[s.i], pool[s.j]);
    case 2: return m.apply_xor(pool[s.i], pool[s.j]);
    case 3: return m.apply_diff(pool[s.i], pool[s.j]);
    case 4: return m.apply_not(pool[s.i]);
    case 5: return m.ite(pool[s.i], pool[s.j], pool[s.k]);
    case 6: return m.exists(pool[s.i], s.var, s.count);
    default: return m.cube(s.var, s.bits, s.width, s.len);
  }
}

TT oracle_step(const std::vector<TT>& pool, const Step& s, int nvars) {
  switch (s.kind) {
    case 0: case 1: case 2: case 3:
      return tt_binop(pool[s.i], pool[s.j], s.kind);
    case 4: return tt_not(pool[s.i]);
    case 5:
      return tt_binop(tt_binop(pool[s.i], pool[s.j], 0),
                      tt_binop(pool[s.k], pool[s.i], 3), 1);
    case 6: return tt_exists(pool[s.i], s.var, s.count);
    default: return tt_cube(nvars, s.var, s.bits, s.width, s.len);
  }
}

// The workhorse: runs `sequences` seeded sequences of `steps` ops each,
// against the oracle.
void run_differential(std::uint64_t seed_base, int sequences, int steps,
                      bool degrade_hash) {
  for (int seq = 0; seq < sequences; ++seq) {
    const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(seq);
    Rng rng(seed);
    const int nvars = 8 + static_cast<int>(rng.index(5));  // 8..12
    BddManager m(nvars);
    if (degrade_hash)
      m.degrade_hash_for_test(1 + static_cast<int>(rng.index(4)));
    Expander ex{m, nvars, {}};

    std::vector<BddRef> pool{kBddFalse, kBddTrue};
    std::vector<TT> tts{TT::falsum(nvars), TT::verum(nvars)};
    // Canonicity: truth table <-> ref must stay a bijection.
    std::map<std::array<std::uint64_t, 64>, BddRef> canon;
    canon.emplace(tts[0].w, kBddFalse);
    canon.emplace(tts[1].w, kBddTrue);
    for (int v = 0; v < nvars; ++v) {
      pool.push_back(m.var(v));
      tts.push_back(TT::literal(nvars, v, true));
      canon.emplace(tts.back().w, pool.back());
    }

    for (int st = 0; st < steps; ++st) {
      const Step s = Step::draw(rng, pool.size(), nvars);
      const BddRef r = run_step(m, pool, s);
      const TT expect = oracle_step(tts, s, nvars);

      // Semantics: the BDD's truth table equals the oracle's.
      ASSERT_EQ(ex.expand(r), expect)
          << "seed " << seed << " step " << st << " kind " << s.kind;
      // Canonicity: same function <-> same ref.
      const auto [it, inserted] = canon.emplace(expect.w, r);
      ASSERT_EQ(it->second, r)
          << "canonicity violated at seed " << seed << " step " << st;

      pool.push_back(r);
      tts.push_back(expect);
    }
  }
}

// Sequences split across shards so a failure pins a narrow seed range:
// 4000 plain + 800 degraded-hash = 4800.
TEST(BddDifferential, PooledMatchesTruthTableOracle) {
  run_differential(/*seed_base=*/1000, /*sequences=*/4000, /*steps=*/14,
                   /*degrade_hash=*/false);
}

TEST(BddDifferential, DegradedHashMatchesTruthTableOracle) {
  run_differential(/*seed_base=*/900000, /*sequences=*/800, /*steps=*/14,
                   /*degrade_hash=*/true);
}

// ---- Read-side concurrency (TSan target) ------------------------------

TEST(BddDifferential, ConcurrentSatCountAndEvalOnSharedManager) {
  // Build a moderately sized BDD, then hammer the read-side contract:
  // sat_count (shared_mutex memo), eval_with, pick and size from many
  // threads at once. Under TSan this proves the shared_mutex swap left
  // no write race on the memo.
  BddManager m(16);
  Rng rng(0x5A7C0);
  std::vector<BddRef> roots;
  for (int i = 0; i < 32; ++i) {
    BddRef r = m.cube(0, rng.uniform(0, 65535), 16, 10);
    r = m.apply_or(r, m.cube(4, rng.uniform(0, 4095), 12, 12));
    roots.push_back(r);
  }
  std::vector<double> expect;
  expect.reserve(roots.size());
  // Warm nothing: every thread starts with a cold memo on some root.
  std::vector<std::thread> pool;
  std::vector<std::vector<double>> got(8);
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&m, &roots, &got, t] {
      got[static_cast<std::size_t>(t)].reserve(roots.size());
      for (std::size_t i = 0; i < roots.size(); ++i) {
        const BddRef r = roots[(i + static_cast<std::size_t>(t)) %
                               roots.size()];
        const double c = m.sat_count(r);
        (void)m.eval_with(r, [i](int v) { return ((i >> v) & 1u) != 0; });
        (void)m.size(r);
        (void)m.pick_one(r);
        got[static_cast<std::size_t>(t)].push_back(c);
      }
    });
  }
  for (auto& th : pool) th.join();
  for (const BddRef r : roots) expect.push_back(m.sat_count(r));
  for (int t = 0; t < 8; ++t)
    for (std::size_t i = 0; i < roots.size(); ++i)
      EXPECT_DOUBLE_EQ(
          got[static_cast<std::size_t>(t)][i],
          expect[(i + static_cast<std::size_t>(t)) % roots.size()]);
}

}  // namespace
}  // namespace veridp
