// A from-scratch Reduced Ordered Binary Decision Diagram (ROBDD) engine.
//
// The paper (§4.1) represents packet-header sets with BDDs because wildcard
// expressions blow up on arbitrary sets (e.g. dst_port != 22) and support
// set operations poorly. This engine provides exactly what the path-table
// machinery needs:
//
//   * hash-consed nodes (a unique table) so structural equality is pointer
//     equality — header-set comparison is O(1),
//   * a memoized apply() for AND / OR / XOR / DIFF,
//   * negation, implication tests, satisfiability counting, and witness
//     extraction (used to synthesize concrete test packets from a set).
//
// Memory layout (DESIGN.md §7): nodes live in one flat pool (a contiguous
// vector of 12-byte {var, low, high} records, append-only, never moved
// logically — growth reallocates but indices are stable). The unique
// table is open-addressing (linear probe, power-of-two capacity,
// tombstone-free because nodes are never deleted) keyed on the FULL
// (var, low, high) triple; slot values are node indices and probes
// compare against the pool, so distinct triples can never merge
// regardless of hash behaviour (`tests/test_bdd.cc` pins this through
// the raw-intern test hook). The operation cache is a bounded,
// direct-mapped, lossy array (CUDD/BuDDy style): each slot stores the
// exact (op, a, b) key and its result, a colliding insert simply
// overwrites. Losing an entry costs only recomputation — apply() results
// are canonical, so a stale-free exact-compare hit is always correct.
// Unary (NOT) and quantifier (EXISTS) operations carry their own op tags
// and operand encodings, so they can never alias a binary entry.
//
// Nodes are never garbage collected: managers live as long as the path
// table that uses them, and the workloads in this repository peak at a few
// million nodes. `BddManager::node_count()` exposes growth for benchmarks.
//
// Handles (`BddRef`) are plain integers: 0 is the FALSE terminal, 1 is the
// TRUE terminal. Variables are tested in increasing index order from the
// root (variable 0 is the topmost).
//
// Thread-safety contract (audited for the parallel verification server;
// the concurrency tests under the TSan preset exercise it):
//
//   * READ-ONLY ops — eval/eval_with, eval_packed_many, pick_one,
//     pick_random, size, top_var, low_of/high_of, is_false/is_true —
//     walk the immutable node store and allocate nothing shared; any
//     number of threads may run them concurrently. (PathTable's lazy
//     classifier build relies on top_var, low_of and high_of being in
//     this set, and its residual tests on eval_with.)
//   * sat_count is logically read-only but memoizes; its cache is
//     guarded by an internal shared_mutex (read-mostly after warm-up:
//     concurrent warm hits share the lock), so it is safe concurrently
//     with the read-only ops and with itself.
//   * EVERY OTHER member (var, nvar, apply_*, ite, implies, and_all,
//     or_all, cube, cube_onto, exists, reserve) may create nodes or
//     touch the unguarded apply cache and requires EXCLUSIVE access to
//     the manager — no concurrent reader, because node creation can
//     reallocate the store readers are walking. The parallel server
//     therefore builds each published path-table snapshot in a fresh
//     manager and never mutates one that readers hold.
//
// BDD_CHECK_ARENA (opt-in, compile with -DVERIDP_BDD_CHECK_ARENA): every
// non-terminal BddRef a manager hands out is tagged with that manager's
// 7-bit arena generation in bits 24..30 of the handle; every ref a
// manager receives is checked against its own generation, and a mismatch
// aborts with a diagnostic. This is the runtime twin of the
// `bare-bddref-member` lint rule (tools/veridp_lint.py): the lint stops
// code from *storing* refs without arena provenance, the check catches a
// ref that nonetheless crosses arenas at the eval/apply boundary — e.g.
// a handle minted in one epoch snapshot's arena evaluated against
// another's. Terminals (FALSE/TRUE) are arena-free by construction and
// cannot be checked. Not for production builds: it caps the pool at
// 2^24 nodes and the 7-bit generation wraps after 127 managers.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"

namespace veridp {

// veridp-lint: hot-path

/// Handle to a BDD node inside a BddManager.
using BddRef = std::int32_t;

inline constexpr BddRef kBddFalse = 0;
inline constexpr BddRef kBddTrue = 1;

/// Shared-nothing BDD node store and operation cache.
class BddManager {
 public:
  /// Creates a manager over `num_vars` Boolean variables.
  explicit BddManager(int num_vars);

  BddManager(const BddManager&) = delete;
  BddManager& operator=(const BddManager&) = delete;

  int num_vars() const { return num_vars_; }

  /// Pre-sizes the node pool and unique table for ~`nodes` nodes (and
  /// widens the op cache accordingly), avoiding incremental rehashes on
  /// bulk construction. Growth only — never shrinks.
  void reserve(std::size_t nodes);

  /// The BDD for the positive literal of variable `var`.
  BddRef var(int var);
  /// The BDD for the negative literal of variable `var`.
  BddRef nvar(int var);

  // -- Boolean algebra ------------------------------------------------------
  BddRef apply_and(BddRef a, BddRef b);
  BddRef apply_or(BddRef a, BddRef b);
  BddRef apply_xor(BddRef a, BddRef b);
  /// a AND NOT b (set difference).
  BddRef apply_diff(BddRef a, BddRef b);
  BddRef apply_not(BddRef a);
  /// If-then-else: ite(f, g, h) = (f AND g) OR (NOT f AND h).
  BddRef ite(BddRef f, BddRef g, BddRef h);

  // -- Queries --------------------------------------------------------------
  /// True iff `a` is the empty set.
  bool is_false(BddRef a) const { return a == kBddFalse; }
  /// True iff `a` is the universal set.
  bool is_true(BddRef a) const { return a == kBddTrue; }
  /// True iff a ⊆ b, i.e. a AND NOT b == FALSE.
  bool implies(BddRef a, BddRef b);

  /// Evaluates `a` under an assignment provided as any callable
  /// int -> bool. The membership fast path: inlines the walk with no
  /// std::function indirection, O(path length), allocates nothing.
  template <class BitFn>
  bool eval_with(BddRef a, BitFn&& bit) const {
    a = check_ref(a, "eval_with");
    while (a > kBddTrue) {
      const Node& n = nodes_[static_cast<std::size_t>(a)];
      a = bit(n.var) ? n.high : n.low;
    }
    return a == kBddTrue;
  }

  /// Lane width of eval_packed_many's lockstep walk. Eight independent
  /// walks in flight cover the ~4-cycle-issue × ~100ns-miss product of
  /// one dependent node load without spilling the lane state registers.
  static constexpr std::size_t kEvalLanes = 8;

  /// Batched membership: evaluates n independent (root, packed-header)
  /// pairs, writing out[i] = 1 iff hdrs[i] ∈ roots[i]. The packed
  /// header uses PacketHeader::bits_packed() layout — variable v is bit
  /// (63 - v%64) of word v/64 — i.e. each lane computes exactly
  /// `eval_with(roots[i], [&](int v){ return (h[v>>6] >> (63-(v&63)))&1; })`.
  ///
  /// Scalar eval_with is a chain of dependent, cache-missing node loads;
  /// this walks kEvalLanes roots in lockstep (advancing every live lane
  /// one level per sweep, prefetching each lane's next node) so the
  /// misses overlap instead of serializing. Verdicts are bit-identical
  /// to per-lane eval_with. Read-only, allocation-free, safe
  /// concurrently like eval_with.
  void eval_packed_many(const BddRef* roots,
                        const std::array<std::uint64_t, 2>* hdrs,
                        std::size_t n, std::uint8_t* out) const;

  /// Evaluates `a` under a full assignment: `bits[v]` is the value of
  /// variable v. O(path length); allocates nothing.
  bool eval(BddRef a, const std::vector<bool>& bits) const;
  /// Type-erased convenience overload (cold paths; hot paths should use
  /// eval_with).
  // veridp-lint: allow(hot-path-std-function) documented cold-path overload
  bool eval(BddRef a, const std::function<bool(int)>& bit) const;

  /// Number of satisfying assignments over all num_vars() variables,
  /// as a double (the count can exceed 2^64 for 104-var headers).
  /// Memoized behind an internal shared mutex: safe to call concurrently
  /// with the read-only ops (see the thread-safety contract above).
  double sat_count(BddRef a) const EXCLUDES(count_mu_);

  /// Picks one satisfying assignment; returns nullopt iff a == FALSE.
  /// Unconstrained variables are set to 0.
  std::optional<std::vector<bool>> pick_one(BddRef a) const;

  /// Picks a pseudo-random satisfying assignment: free variables are
  /// chosen by `coin` (any callable returning bool).
  template <class CoinFn>
  std::optional<std::vector<bool>> pick_random_with(BddRef a,
                                                    CoinFn&& coin) const {
    a = check_ref(a, "pick_random_with");
    if (a == kBddFalse) return std::nullopt;
    std::vector<bool> bits(static_cast<std::size_t>(num_vars_));
    for (int v = 0; v < num_vars_; ++v)
      bits[static_cast<std::size_t>(v)] = coin();
    BddRef cur = a;
    while (cur > kBddTrue) {
      const Node& n = nodes_[static_cast<std::size_t>(cur)];
      // Prefer the coin's choice if it keeps us satisfiable; otherwise flip.
      bool want = bits[static_cast<std::size_t>(n.var)];
      BddRef next = want ? n.high : n.low;
      if (next == kBddFalse) {
        want = !want;
        next = want ? n.high : n.low;
      }
      bits[static_cast<std::size_t>(n.var)] = want;
      cur = next;
    }
    return bits;
  }

  /// Type-erased pick_random (cold paths).
  // veridp-lint: allow(hot-path-std-function) documented cold-path overload
  std::optional<std::vector<bool>> pick_random(
      BddRef a, const std::function<bool()>& coin) const;

  /// Number of live nodes (including the two terminals).
  std::size_t node_count() const { return nodes_.size(); }

  /// Number of distinct nodes reachable from `a` (BDD size).
  std::size_t size(BddRef a) const;

  /// Builds the conjunction a[0] AND a[1] AND ... (TRUE for empty) by
  /// balanced pairwise reduction, keeping intermediate BDDs small.
  BddRef and_all(const std::vector<BddRef>& xs);
  /// Builds the disjunction (FALSE for empty), balanced like and_all.
  BddRef or_all(const std::vector<BddRef>& xs);

  /// Constrains variables [first_var, first_var+len) to equal the top
  /// `len` bits of `bits` (MSB-first within the given width). This is the
  /// workhorse for IP-prefix predicates: O(len) nodes, no apply needed.
  BddRef cube(int first_var, std::uint64_t bits, int width, int len);

  /// cube() generalized to an arbitrary continuation: the result is the
  /// cube conjoined with `tail`, built bottom-up with plain make_node
  /// calls — still no apply. Chaining cube_onto from the highest field
  /// to the lowest builds an n-field singleton with zero cache pressure
  /// (tail's top variable must lie below the cube's range).
  BddRef cube_onto(BddRef tail, int first_var, std::uint64_t bits, int width,
                   int len);

  /// Existential quantification over the contiguous variable range
  /// [first_var, first_var + count): ∃ x_i... f. Used by header-rewrite
  /// image computation (forget a field, then pin it to the new value).
  BddRef exists(BddRef a, int first_var, int count);

  /// Variable index at the root of `a`, or num_vars() for terminals.
  int top_var(BddRef a) const;

  /// Structural cofactors of the root node (terminals return themselves).
  /// Read-only: lets tools/tests expand a BDD without re-evaluating.
  BddRef low_of(BddRef a) const {
    return tag_ref(
        nodes_[static_cast<std::size_t>(check_ref(a, "low_of"))].low);
  }
  BddRef high_of(BddRef a) const {
    return tag_ref(
        nodes_[static_cast<std::size_t>(check_ref(a, "high_of"))].high);
  }

  // -- Diagnostics / test hooks ---------------------------------------------
  /// Current unique-table slot count.
  std::size_t unique_capacity() const { return slots_.size(); }

  /// TEST-ONLY: interns a raw (var, low, high) triple without validating
  /// that the children exist, so collision tests can shape >2^24-style
  /// index patterns in the key fields without allocating millions of
  /// nodes. The returned ref must never be evaluated or combined — it is
  /// only meaningful for identity checks (same triple -> same ref,
  /// distinct triple -> distinct ref).
  BddRef intern_raw_for_test(std::int32_t var, BddRef low, BddRef high);

  /// TEST-ONLY: truncates every unique-table hash to its
  /// low `keep_bits` bits and rehashes, forcing pathological clustering.
  /// Correctness must be hash-independent (probes compare full triples);
  /// the differential suite runs under keep_bits <= 4 to prove it.
  void degrade_hash_for_test(int keep_bits);

 private:
  struct Node {
    std::int32_t var;  // variable index; terminals use var == num_vars_
    BddRef low;        // child when var == 0
    BddRef high;       // child when var == 1
  };

  enum class Op : std::uint8_t { And, Or, Xor, Diff, Not };

  // -- Op cache -------------------------------------------------------------
  // Direct-mapped, bounded, lossy. `op` doubles as the occupancy flag
  // (kOpEmpty = vacant). Binary ops store both operands; NOT stores
  // (a, 0); EXISTS stores (a, first_var << 16 | count) under its own tag
  // — exact compare on (op, a, b) makes aliasing structurally impossible.
  static constexpr std::uint32_t kOpNot = 4;
  static constexpr std::uint32_t kOpExists = 5;
  static constexpr std::uint32_t kOpEmpty = 0xFFFFFFFFu;
  struct ApplyEntry {
    std::uint32_t op = kOpEmpty;
    BddRef a = 0;
    BddRef b = 0;
    BddRef result = 0;
  };

  BddRef make_node(std::int32_t var, BddRef low, BddRef high);
  BddRef intern(std::int32_t var, BddRef low, BddRef high);
  BddRef apply(Op op, BddRef a, BddRef b);
  BddRef apply_not_rec(BddRef a);
  BddRef exists_rec(BddRef a, int first_var, int count);
  double sat_count_rec(BddRef r) const REQUIRES(count_mu_);
  static bool terminal_case(Op op, BddRef a, BddRef b, BddRef& out);

  // -- BDD_CHECK_ARENA helpers ----------------------------------------------
  // tag_ref stamps an outgoing non-terminal handle with this manager's
  // arena generation; check_ref verifies an incoming handle and strips
  // the stamp (aborting on a cross-arena mismatch). In normal builds
  // both are the identity and vanish entirely.
#if defined(VERIDP_BDD_CHECK_ARENA)
  static constexpr int kArenaShift = 24;
  static constexpr BddRef kArenaIndexMask = (BddRef{1} << kArenaShift) - 1;

  BddRef tag_ref(BddRef raw) const {
    if (raw <= kBddTrue) return raw;
    assert(raw <= kArenaIndexMask &&
           "BDD_CHECK_ARENA caps the node pool at 2^24 nodes");
    return raw | static_cast<BddRef>(arena_gen_ << kArenaShift);
  }
  BddRef check_ref(BddRef tagged, const char* op) const {
    if (tagged <= kBddTrue) return tagged;
    const std::uint32_t gen =
        static_cast<std::uint32_t>(tagged) >> kArenaShift;
    if (gen != arena_gen_) die_cross_arena(op, tagged, gen);
    return tagged & kArenaIndexMask;
  }
  [[noreturn]] void die_cross_arena(const char* op, BddRef tagged,
                                    std::uint32_t got) const;
#else
  static constexpr BddRef tag_ref(BddRef r) { return r; }
  static constexpr BddRef check_ref(BddRef r, const char* /*op*/) {
    return r;
  }
#endif

  std::uint64_t hash_triple(std::int32_t var, BddRef low, BddRef high) const;
  std::size_t cache_index(std::uint32_t op, BddRef a, BddRef b) const;
  BddRef cache_lookup(std::uint32_t op, BddRef a, BddRef b) const;
  void cache_store(std::uint32_t op, BddRef a, BddRef b, BddRef result);
  void grow_unique(std::size_t min_slots);
  void maybe_grow_caches();

  int num_vars_;
  std::vector<Node> nodes_;

  // Unique table: open addressing, linear probe, power-of-two,
  // tombstone-free. Slot value is a node index; 0 (the FALSE terminal,
  // never interned) marks an empty slot.
  std::vector<BddRef> slots_;
  std::size_t slot_mask_ = 0;
  std::size_t interned_ = 0;
  int hash_keep_bits_ = 64;  // degraded by degrade_hash_for_test

  // Op cache: direct-mapped, power-of-two, bounded.
  std::vector<ApplyEntry> op_slots_;
  std::size_t op_mask_ = 0;

  // sat_count memo, invalidated never (nodes are immutable). Mutated
  // under count_mu_ from the logically-const sat_count; warm lookups
  // take the shared side, so concurrent readers (e.g. HeaderSet::count
  // from verification threads) proceed in parallel after warm-up.
  // GUARDED_BY makes the contract compiler-checked: any new code path
  // touching the memo without the capability fails the clang-strict
  // build instead of racing at runtime.
  // Leaf lock: sat_count never acquires another veridp lock while
  // holding the memo, so no declared-order edges originate here.
  mutable SharedMutex count_mu_;
  // veridp-lint: allow(hot-path-node-map, sat_count memo, not per report)
  mutable std::unordered_map<BddRef, double> count_cache_
      GUARDED_BY(count_mu_);

#if defined(VERIDP_BDD_CHECK_ARENA)
  std::uint32_t arena_gen_;  ///< 1..127, assigned at construction
#endif
};

}  // namespace veridp
