// HeaderSet: a set of packet headers, represented as a BDD over the 104-bit
// 5-tuple encoding. This is the paper's `headers` component of path-table
// entries and the value type of transfer predicates P_{x,y}.
//
// All HeaderSets belonging to one network share a HeaderSpace (which owns
// the BddManager); set operations between spaces are undefined.
//
// Thread-safety (mirrors the BddManager contract, see bdd.hpp): a
// HeaderSet value is immutable, and the MEMBERSHIP-side queries —
// contains, any_member, sample, count, bdd_size, empty, is_all, ref,
// operator== — are race-free for any number of concurrent threads over
// sets of the same space. This is exactly what tag verification touches,
// which is why verification parallelizes without locks. The ALGEBRA side
// — operator&/|/-/^/~, subset_of, set_field, and every HeaderSpace
// constructor method — creates BDD nodes in the shared manager and
// requires exclusive access to the whole space (no concurrent reader).
// Builders therefore construct each published path-table snapshot in its
// own fresh HeaderSpace.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bdd/bdd.hpp"
#include "common/ip.hpp"
#include "common/rng.hpp"
#include "header/fields.hpp"
#include "header/packet_header.hpp"

namespace veridp {

// veridp-lint: hot-path

class HeaderSet;

/// Factory + arena for HeaderSets. One per network/path-table instance.
class HeaderSpace {
 public:
  HeaderSpace() : mgr_(std::make_shared<BddManager>(kHeaderBits)) {}

  /// The universal set (all headers).
  HeaderSet all() const;
  /// The empty set.
  HeaderSet none() const;

  /// Headers whose field `f` equals `value`.
  HeaderSet field_eq(Field f, std::uint64_t value) const;
  /// Headers whose field `f` lies in [lo, hi] (inclusive).
  HeaderSet field_range(Field f, std::uint64_t lo, std::uint64_t hi) const;
  /// Headers whose src/dst IP matches an IPv4 prefix.
  HeaderSet ip_prefix(Field f, const Prefix& p) const;
  /// The singleton set {h}.
  HeaderSet singleton(const PacketHeader& h) const;

  /// Union of many sets via balanced pairwise reduction — keeps
  /// intermediate BDDs small (better op-cache locality than a left
  /// fold). Empty input yields none().
  HeaderSet union_all(const std::vector<HeaderSet>& xs) const;

  /// Pre-size the underlying tables for an expected node count.
  void reserve(std::size_t nodes) const { mgr_->reserve(nodes); }

  /// Underlying manager (for diagnostics: node counts, etc.).
  BddManager& manager() const { return *mgr_; }

 private:
  HeaderSet wrap(BddRef r) const;
  std::shared_ptr<BddManager> mgr_;
};

/// Immutable value type: a header set. Cheap to copy (shared_ptr + int).
class HeaderSet {
 public:
  HeaderSet() = default;  // empty set with no space; only valid for compare

  // -- Set algebra -----------------------------------------------------------
  HeaderSet operator&(const HeaderSet& o) const;
  HeaderSet operator|(const HeaderSet& o) const;
  HeaderSet operator-(const HeaderSet& o) const;  ///< difference
  HeaderSet operator^(const HeaderSet& o) const;  ///< symmetric difference
  HeaderSet operator~() const;                    ///< complement
  HeaderSet& operator&=(const HeaderSet& o) { return *this = *this & o; }
  HeaderSet& operator|=(const HeaderSet& o) { return *this = *this | o; }
  HeaderSet& operator-=(const HeaderSet& o) { return *this = *this - o; }

  /// Structural equality (canonical BDDs: O(1)).
  friend bool operator==(const HeaderSet& a, const HeaderSet& b) {
    return a.ref_ == b.ref_ && a.mgr_.get() == b.mgr_.get();
  }

  [[nodiscard]] bool empty() const { return ref_ == kBddFalse; }
  [[nodiscard]] bool is_all() const { return ref_ == kBddTrue; }
  /// True iff this ⊆ o.
  [[nodiscard]] bool subset_of(const HeaderSet& o) const;
  /// True iff the concrete header h is in the set.
  [[nodiscard]] bool contains(const PacketHeader& h) const;
  /// Number of headers in the set (double: may exceed 2^64).
  [[nodiscard]] double count() const;
  /// BDD node count of the representation.
  [[nodiscard]] std::size_t bdd_size() const;

  /// The image of the set under the rewrite "field f := value": forgets
  /// the field (existential quantification) and pins it to the new
  /// value. {h[f := value] : h ∈ this}. Used by the header-rewrite
  /// extension (paper §8 future work #1).
  [[nodiscard]] HeaderSet set_field(Field f, std::uint64_t value) const;

  /// An arbitrary member, or nullopt if empty.
  [[nodiscard]] std::optional<PacketHeader> any_member() const;
  /// A pseudo-random member drawn with `rng`, or nullopt if empty.
  [[nodiscard]] std::optional<PacketHeader> sample(Rng& rng) const;

  /// Raw BDD handle (stable identity for hashing/indexing).
  [[nodiscard]] BddRef ref() const { return ref_; }

  /// Owning manager, null for a default-constructed set. The batched
  /// verifier uses it to group same-arena entries for the lockstep
  /// membership kernel (BddManager::eval_packed_many); membership-side
  /// read-only like ref().
  [[nodiscard]] const BddManager* manager() const { return mgr_.get(); }

 private:
  friend class HeaderSpace;
  HeaderSet(std::shared_ptr<BddManager> mgr, BddRef ref)
      : mgr_(std::move(mgr)), ref_(ref) {}

  std::shared_ptr<BddManager> mgr_;
  BddRef ref_ = kBddFalse;
};

}  // namespace veridp
