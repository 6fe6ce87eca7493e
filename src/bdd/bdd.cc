#include "bdd/bdd.hpp"

#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

namespace veridp {

namespace {

#if defined(VERIDP_BDD_CHECK_ARENA)
// Arena generations are handed out round-robin from a process-wide
// counter; 0 is reserved (an untagged handle can never pass check_ref).
// The 7-bit space wraps after 127 live managers — acceptable for a
// debug mode whose job is catching the common one-snapshot-off bug.
std::atomic<std::uint32_t> g_arena_counter{0};

std::uint32_t next_arena_generation() {
  // veridp-lint: allow(relaxed-atomic, unique-id handout; only atomicity needed)
  return 1 + g_arena_counter.fetch_add(1, std::memory_order_relaxed) % 127;
}
#endif

// Initial geometry (DESIGN.md §7). The unique table starts at 64Ki slots
// (256 KiB) and doubles at 70% load; the op cache starts at 16Ki entries
// (256 KiB), tracks the node count up to a hard 1Mi-entry bound (16 MiB)
// and stays bounded from there — lossy by design.
constexpr std::size_t kUniqueInitSlots = std::size_t{1} << 16;
constexpr std::size_t kOpCacheInitEntries = std::size_t{1} << 14;
constexpr std::size_t kOpCacheMaxEntries = std::size_t{1} << 20;

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

BddManager::BddManager(int num_vars) : num_vars_(num_vars) {
  assert(num_vars >= 0 && num_vars < (1 << 15));
#if defined(VERIDP_BDD_CHECK_ARENA)
  arena_gen_ = next_arena_generation();
#endif
  // Terminal nodes: index 0 = FALSE, 1 = TRUE. Their var is num_vars_ so
  // that terminals sort below every real variable. Terminals are never
  // interned, which is what lets slot value 0 mean "empty".
  nodes_.reserve(1 << 16);
  nodes_.push_back(Node{num_vars_, kBddFalse, kBddFalse});
  nodes_.push_back(Node{num_vars_, kBddTrue, kBddTrue});
  slots_.assign(kUniqueInitSlots, kBddFalse);
  slot_mask_ = kUniqueInitSlots - 1;
  op_slots_.assign(kOpCacheInitEntries, ApplyEntry{});
  op_mask_ = kOpCacheInitEntries - 1;
}

std::uint64_t BddManager::hash_triple(std::int32_t var, BddRef low,
                                      BddRef high) const {
  std::uint64_t h =
      static_cast<std::uint32_t>(var) * 0x9E3779B97F4A7C15ULL;
  h ^= static_cast<std::uint32_t>(low) * 0xC2B2AE3D27D4EB4FULL;
  h ^= static_cast<std::uint32_t>(high) * 0x165667B19E3779F9ULL;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 32;
  if (hash_keep_bits_ < 64) h &= (std::uint64_t{1} << hash_keep_bits_) - 1;
  return h;
}

std::size_t BddManager::cache_index(std::uint32_t op, BddRef a,
                                    BddRef b) const {
  // Operands are odd-multiplied before folding and the result is only
  // a direct-mapped cache index -- collisions evict, they never alias
  // (the slot stores the full triple). veridp-lint: allow(xor-hash-key)
  std::uint64_t h = (static_cast<std::uint64_t>(op) << 60) ^
                    static_cast<std::uint32_t>(a) * 0xFF51AFD7ED558CCDULL ^
                    static_cast<std::uint32_t>(b) * 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 29;
  return static_cast<std::size_t>(h) & op_mask_;
}

BddRef BddManager::cache_lookup(std::uint32_t op, BddRef a, BddRef b) const {
  const ApplyEntry& e = op_slots_[cache_index(op, a, b)];
  if (e.op == op && e.a == a && e.b == b) return e.result;
  return -1;
}

void BddManager::cache_store(std::uint32_t op, BddRef a, BddRef b,
                             BddRef result) {
  // Index recomputed here on purpose: the recursion between lookup and
  // store may have grown (and thus cleared) the cache array.
  op_slots_[cache_index(op, a, b)] = ApplyEntry{op, a, b, result};
}

void BddManager::grow_unique(std::size_t min_slots) {
  const std::size_t cap = next_pow2(min_slots);
  slots_.assign(cap, kBddFalse);
  slot_mask_ = cap - 1;
  // Rehash by walking the pool (cache-friendly, and every non-terminal
  // node is interned by construction).
  for (std::size_t idx = 2; idx < nodes_.size(); ++idx) {
    const Node& n = nodes_[idx];
    std::size_t i =
        static_cast<std::size_t>(hash_triple(n.var, n.low, n.high)) &
        slot_mask_;
    while (slots_[i] != kBddFalse) i = (i + 1) & slot_mask_;
    slots_[i] = static_cast<BddRef>(idx);
  }
}

void BddManager::maybe_grow_caches() {
  // Keep the op cache tracking the node count until the bound: a cache
  // much smaller than the working set thrashes, one much larger wastes
  // the cache lines the flat pool just saved.
  if (op_slots_.size() < kOpCacheMaxEntries &&
      nodes_.size() > op_slots_.size()) {
    std::size_t target = op_slots_.size();
    while (target < nodes_.size() && target < kOpCacheMaxEntries)
      target <<= 1;
    op_slots_.assign(target, ApplyEntry{});  // lossy: dropped entries
    op_mask_ = target - 1;
  }
}

void BddManager::reserve(std::size_t nodes) {
  nodes_.reserve(nodes + 2);
  const std::size_t want_slots = nodes * 10 / 7 + 1;  // keep load < 0.7
  if (want_slots > slots_.size()) grow_unique(want_slots);
  if (op_slots_.size() < kOpCacheMaxEntries && nodes > op_slots_.size()) {
    const std::size_t target =
        std::min(next_pow2(nodes), kOpCacheMaxEntries);
    op_slots_.assign(target, ApplyEntry{});
    op_mask_ = target - 1;
  }
}

BddRef BddManager::intern(std::int32_t var, BddRef low, BddRef high) {
  std::size_t i =
      static_cast<std::size_t>(hash_triple(var, low, high)) & slot_mask_;
  for (;;) {
    const BddRef s = slots_[i];
    if (s == kBddFalse) break;
    const Node& n = nodes_[static_cast<std::size_t>(s)];
    // Full-triple compare: hash collisions probe on, they never merge.
    if (n.var == var && n.low == low && n.high == high) return s;
    i = (i + 1) & slot_mask_;
  }
  nodes_.push_back(Node{var, low, high});
  const BddRef ref = static_cast<BddRef>(nodes_.size() - 1);
  slots_[i] = ref;
  if (++interned_ * 10 >= slots_.size() * 7) grow_unique(slots_.size() * 2);
  maybe_grow_caches();
  return ref;
}

BddRef BddManager::make_node(std::int32_t var, BddRef low, BddRef high) {
  if (low == high) return low;  // reduction rule
  return intern(var, low, high);
}

BddRef BddManager::intern_raw_for_test(std::int32_t var, BddRef low,
                                       BddRef high) {
  // Deliberately exempt from arena tagging/checking: collision tests feed
  // synthetic index patterns that are not real handles, and the returned
  // ref is only ever compared for identity (see the header contract).
  return make_node(var, low, high);
}

#if defined(VERIDP_BDD_CHECK_ARENA)
void BddManager::die_cross_arena(const char* op, BddRef tagged,
                                 std::uint32_t got) const {
  std::fprintf(stderr,
               "veridp: cross-arena BddRef in BddManager::%s: handle "
               "0x%08x carries arena generation %u but this manager is "
               "generation %u — the ref was minted by a different "
               "BddManager (e.g. another epoch snapshot's arena)\n",
               op, static_cast<unsigned>(tagged), got, arena_gen_);
  std::abort();
}
#endif

void BddManager::degrade_hash_for_test(int keep_bits) {
  assert(keep_bits >= 0 && keep_bits <= 64);
  hash_keep_bits_ = keep_bits;
  grow_unique(slots_.size());  // rehash in place under the degraded hash
}

BddRef BddManager::var(int v) {
  assert(v >= 0 && v < num_vars_);
  return tag_ref(make_node(v, kBddFalse, kBddTrue));
}

BddRef BddManager::nvar(int v) {
  assert(v >= 0 && v < num_vars_);
  return tag_ref(make_node(v, kBddTrue, kBddFalse));
}

bool BddManager::terminal_case(Op op, BddRef a, BddRef b, BddRef& out) {
  switch (op) {
    case Op::And:
      if (a == kBddFalse || b == kBddFalse) return out = kBddFalse, true;
      if (a == kBddTrue) return out = b, true;
      if (b == kBddTrue) return out = a, true;
      if (a == b) return out = a, true;
      return false;
    case Op::Or:
      if (a == kBddTrue || b == kBddTrue) return out = kBddTrue, true;
      if (a == kBddFalse) return out = b, true;
      if (b == kBddFalse) return out = a, true;
      if (a == b) return out = a, true;
      return false;
    case Op::Xor:
      if (a == b) return out = kBddFalse, true;
      if (a == kBddFalse) return out = b, true;
      if (b == kBddFalse) return out = a, true;
      return false;
    case Op::Diff:
      if (a == kBddFalse || b == kBddTrue) return out = kBddFalse, true;
      if (b == kBddFalse) return out = a, true;
      if (a == b) return out = kBddFalse, true;
      return false;
    case Op::Not:
      return false;
  }
  return false;
}

BddRef BddManager::apply(Op op, BddRef a, BddRef b) {
  BddRef shortcut;
  if (terminal_case(op, a, b, shortcut)) return shortcut;

  // Commutative ops: canonicalize operand order for better cache hits.
  if ((op == Op::And || op == Op::Or || op == Op::Xor) && a > b)
    std::swap(a, b);

  if (const BddRef hit = cache_lookup(static_cast<std::uint32_t>(op), a, b);
      hit >= 0)
    return hit;

  // Copy the operand nodes: the recursion below appends to the pool and
  // may reallocate it.
  const Node na = nodes_[static_cast<std::size_t>(a)];
  const Node nb = nodes_[static_cast<std::size_t>(b)];
  const std::int32_t v = std::min(na.var, nb.var);
  const BddRef a_lo = na.var == v ? na.low : a;
  const BddRef a_hi = na.var == v ? na.high : a;
  const BddRef b_lo = nb.var == v ? nb.low : b;
  const BddRef b_hi = nb.var == v ? nb.high : b;

  const BddRef lo = apply(op, a_lo, b_lo);
  const BddRef hi = apply(op, a_hi, b_hi);
  const BddRef result = make_node(v, lo, hi);
  cache_store(static_cast<std::uint32_t>(op), a, b, result);
  return result;
}

// Public Boolean-algebra entry points: arena-check incoming handles,
// tag outgoing ones; the recursion below them works on raw pool indices.
BddRef BddManager::apply_and(BddRef a, BddRef b) {
  return tag_ref(
      apply(Op::And, check_ref(a, "apply_and"), check_ref(b, "apply_and")));
}
BddRef BddManager::apply_or(BddRef a, BddRef b) {
  return tag_ref(
      apply(Op::Or, check_ref(a, "apply_or"), check_ref(b, "apply_or")));
}
BddRef BddManager::apply_xor(BddRef a, BddRef b) {
  return tag_ref(
      apply(Op::Xor, check_ref(a, "apply_xor"), check_ref(b, "apply_xor")));
}
BddRef BddManager::apply_diff(BddRef a, BddRef b) {
  return tag_ref(
      apply(Op::Diff, check_ref(a, "apply_diff"), check_ref(b, "apply_diff")));
}

BddRef BddManager::apply_not(BddRef a) {
  return tag_ref(apply_not_rec(check_ref(a, "apply_not")));
}

BddRef BddManager::apply_not_rec(BddRef a) {
  if (a == kBddFalse) return kBddTrue;
  if (a == kBddTrue) return kBddFalse;
  if (const BddRef hit = cache_lookup(kOpNot, a, 0); hit >= 0) return hit;
  const Node na = nodes_[static_cast<std::size_t>(a)];
  const BddRef result =
      make_node(na.var, apply_not_rec(na.low), apply_not_rec(na.high));
  cache_store(kOpNot, a, 0, result);
  return result;
}

BddRef BddManager::ite(BddRef f, BddRef g, BddRef h) {
  return apply_or(apply_and(f, g), apply_and(apply_not(f), h));
}

bool BddManager::implies(BddRef a, BddRef b) {
  return apply_diff(a, b) == kBddFalse;
}

bool BddManager::eval(BddRef a, const std::vector<bool>& bits) const {
  return eval_with(a,
                   [&bits](int v) { return bits[static_cast<std::size_t>(v)]; });
}

bool BddManager::eval(BddRef a, const std::function<bool(int)>& bit) const {
  return eval_with(a, [&bit](int v) { return bit(v); });
}

#if defined(__GNUC__) || defined(__clang__)
#define VERIDP_PREFETCH(addr) __builtin_prefetch((addr), 0, 1)
#else
#define VERIDP_PREFETCH(addr) ((void)0)
#endif

void BddManager::eval_packed_many(const BddRef* roots,
                                  const std::array<std::uint64_t, 2>* hdrs,
                                  std::size_t n, std::uint8_t* out) const {
  const Node* const nodes = nodes_.data();
  std::size_t i = 0;
  for (; i + kEvalLanes <= n; i += kEvalLanes) {
    BddRef cur[kEvalLanes];
    for (std::size_t w = 0; w < kEvalLanes; ++w) {
      cur[w] = check_ref(roots[i + w], "eval_packed_many");
      if (cur[w] > kBddTrue) VERIDP_PREFETCH(&nodes[cur[w]]);
    }
    // Lockstep: each sweep advances every live lane one level, so the
    // kEvalLanes dependent node loads are all in flight at once instead
    // of serializing the way a per-lane walk would.
    bool live = true;
    while (live) {
      live = false;
      for (std::size_t w = 0; w < kEvalLanes; ++w) {
        const BddRef a = cur[w];
        if (a <= kBddTrue) continue;
        const Node& nd = nodes[static_cast<std::size_t>(a)];
        const std::uint64_t* h = hdrs[i + w].data();
        const int v = nd.var;
        const std::uint64_t bit = (h[v >> 6] >> (63 - (v & 63))) & 1;
        const BddRef next = bit ? nd.high : nd.low;
        cur[w] = next;
        if (next > kBddTrue) {
          VERIDP_PREFETCH(&nodes[next]);
          live = true;
        }
      }
    }
    for (std::size_t w = 0; w < kEvalLanes; ++w)
      out[i + w] = static_cast<std::uint8_t>(cur[w] == kBddTrue);
  }
  // Remainder lanes: plain scalar walks (same bit extraction).
  for (; i < n; ++i) {
    const std::uint64_t* h = hdrs[i].data();
    out[i] = static_cast<std::uint8_t>(eval_with(
        roots[i], [h](int v) { return (h[v >> 6] >> (63 - (v & 63))) & 1; }));
  }
}

#undef VERIDP_PREFETCH

double BddManager::sat_count(BddRef a) const {
  // count(n) = number of assignments of variables >= n.var satisfying n,
  // scaled at the end for variables above the root. Read-mostly after
  // warm-up: a warm root is answered under the shared lock; only a cold
  // root takes the exclusive side and fills the memo (cold diagnostic
  // path, contention irrelevant).
  a = check_ref(a, "sat_count");
  if (a == kBddFalse) return 0.0;
  if (a == kBddTrue) return std::exp2(num_vars_);
  const Node& root = nodes_[static_cast<std::size_t>(a)];
  {
    ReaderLock lk(count_mu_);
    if (auto it = count_cache_.find(a); it != count_cache_.end())
      return it->second * std::exp2(root.var);
  }
  WriterLock lk(count_mu_);
  return sat_count_rec(a) * std::exp2(root.var);
}

double BddManager::sat_count_rec(BddRef r) const {
  if (r == kBddFalse) return 0.0;
  if (r == kBddTrue) return 1.0;
  if (auto it = count_cache_.find(r); it != count_cache_.end())
    return it->second;
  const Node& n = nodes_[static_cast<std::size_t>(r)];
  const Node& lo = nodes_[static_cast<std::size_t>(n.low)];
  const Node& hi = nodes_[static_cast<std::size_t>(n.high)];
  const double c = sat_count_rec(n.low) * std::exp2(lo.var - n.var - 1) +
                   sat_count_rec(n.high) * std::exp2(hi.var - n.var - 1);
  count_cache_.emplace(r, c);
  return c;
}

std::optional<std::vector<bool>> BddManager::pick_one(BddRef a) const {
  return pick_random_with(a, [] { return false; });
}

std::optional<std::vector<bool>> BddManager::pick_random(
    BddRef a, const std::function<bool()>& coin) const {
  return pick_random_with(a, [&coin] { return coin(); });
}

std::size_t BddManager::size(BddRef a) const {
  std::unordered_set<BddRef> seen;
  std::vector<BddRef> stack{check_ref(a, "size")};
  while (!stack.empty()) {
    const BddRef r = stack.back();
    stack.pop_back();
    if (r <= kBddTrue || !seen.insert(r).second) continue;
    const Node& n = nodes_[static_cast<std::size_t>(r)];
    stack.push_back(n.low);
    stack.push_back(n.high);
  }
  return seen.size() + 2;  // + terminals
}

BddRef BddManager::and_all(const std::vector<BddRef>& xs) {
  if (xs.empty()) return kBddTrue;
  // Balanced pairwise reduction: intermediate conjunctions stay small
  // and structurally similar, so the op cache hits far more often than
  // under the left-fold accumulate.
  std::vector<BddRef> cur;
  cur.reserve(xs.size());
  for (const BddRef x : xs) cur.push_back(check_ref(x, "and_all"));
  while (cur.size() > 1) {
    std::size_t o = 0;
    for (std::size_t i = 0; i + 1 < cur.size(); i += 2)
      cur[o++] = apply(Op::And, cur[i], cur[i + 1]);
    if (cur.size() & 1) cur[o++] = cur.back();
    cur.resize(o);
  }
  return tag_ref(cur.front());
}

BddRef BddManager::or_all(const std::vector<BddRef>& xs) {
  if (xs.empty()) return kBddFalse;
  std::vector<BddRef> cur;
  cur.reserve(xs.size());
  for (const BddRef x : xs) cur.push_back(check_ref(x, "or_all"));
  while (cur.size() > 1) {
    std::size_t o = 0;
    for (std::size_t i = 0; i + 1 < cur.size(); i += 2)
      cur[o++] = apply(Op::Or, cur[i], cur[i + 1]);
    if (cur.size() & 1) cur[o++] = cur.back();
    cur.resize(o);
  }
  return tag_ref(cur.front());
}

BddRef BddManager::cube(int first_var, std::uint64_t bits, int width,
                        int len) {
  return cube_onto(kBddTrue, first_var, bits, width, len);
}

BddRef BddManager::cube_onto(BddRef tail, int first_var, std::uint64_t bits,
                             int width, int len) {
  assert(len >= 0 && len <= width);
  assert(first_var + width <= num_vars_);
  // Ordered-BDD invariant: the continuation must live strictly below the
  // constrained range. (top_var arena-checks `tail` itself.)
  assert(tail <= kBddTrue || top_var(tail) > first_var + len - 1);
  // Build bottom-up from the deepest constrained variable so each level is
  // a single make_node — no apply() and thus no cache pressure.
  BddRef acc = check_ref(tail, "cube_onto");
  for (int i = len - 1; i >= 0; --i) {
    const bool bit = (bits >> (width - 1 - i)) & 1;
    const std::int32_t v = first_var + i;
    acc = bit ? make_node(v, kBddFalse, acc) : make_node(v, acc, kBddFalse);
  }
  return tag_ref(acc);
}

BddRef BddManager::exists(BddRef a, int first_var, int count) {
  return tag_ref(exists_rec(check_ref(a, "exists"), first_var, count));
}

BddRef BddManager::exists_rec(BddRef a, int first_var, int count) {
  if (a <= kBddTrue || count <= 0) return a;
  const int last = first_var + count - 1;
  // EXISTS carries its own op tag and packs (first_var, count) into the
  // b operand — exact compare, no aliasing with binary keys.
  const BddRef range_enc =
      static_cast<BddRef>((first_var << 16) | (count & 0xFFFF));
  if (const BddRef hit = cache_lookup(kOpExists, a, range_enc); hit >= 0)
    return hit;

  const Node n = nodes_[static_cast<std::size_t>(a)];
  BddRef result;
  if (n.var > last) {
    result = a;  // whole range is above this subtree: nothing to forget
  } else if (n.var >= first_var) {
    // Quantified variable: either branch may realize it.
    result = apply(Op::Or, exists_rec(n.low, first_var, count),
                   exists_rec(n.high, first_var, count));
  } else {
    result = make_node(n.var, exists_rec(n.low, first_var, count),
                       exists_rec(n.high, first_var, count));
  }
  cache_store(kOpExists, a, range_enc, result);
  return result;
}

int BddManager::top_var(BddRef a) const {
  return nodes_[static_cast<std::size_t>(check_ref(a, "top_var"))].var;
}

}  // namespace veridp
