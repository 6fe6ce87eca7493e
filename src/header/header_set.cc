#include "header/header_set.hpp"

#include <array>
#include <cassert>

namespace veridp {

// veridp-lint: hot-path

HeaderSet HeaderSpace::wrap(BddRef r) const { return HeaderSet(mgr_, r); }

HeaderSet HeaderSpace::all() const { return wrap(kBddTrue); }
HeaderSet HeaderSpace::none() const { return wrap(kBddFalse); }

HeaderSet HeaderSpace::field_eq(Field f, std::uint64_t value) const {
  return wrap(mgr_->cube(field_offset(f), value, field_width(f),
                         field_width(f)));
}

HeaderSet HeaderSpace::ip_prefix(Field f, const Prefix& p) const {
  assert(f == Field::SrcIp || f == Field::DstIp);
  return wrap(mgr_->cube(field_offset(f), p.addr, 32, p.len));
}

HeaderSet HeaderSpace::field_range(Field f, std::uint64_t lo,
                                   std::uint64_t hi) const {
  const int w = field_width(f);
  const int off = field_offset(f);
  if (lo > hi) return none();
  const std::uint64_t maxv = w == 64 ? ~0ULL : ((1ULL << w) - 1);
  if (lo == 0 && hi >= maxv) return all();

  // ge(lo) AND le(hi), each built bottom-up as a linear-size BDD.
  auto build_ge = [&](std::uint64_t bound) {
    // acc = BDD over suffix vars [i+1, w) for "suffix >= bound's suffix".
    BddRef acc = kBddTrue;
    for (int i = w - 1; i >= 0; --i) {
      const bool bit = (bound >> (w - 1 - i)) & 1;
      const int v = off + i;
      if (bit) {
        // need 1 here and suffix >= rest; 0 here fails.
        acc = mgr_->apply_and(mgr_->var(v), acc);
      } else {
        // 1 here => anything; 0 here => suffix >= rest.
        acc = mgr_->apply_or(mgr_->var(v),
                             mgr_->apply_and(mgr_->nvar(v), acc));
      }
    }
    return acc;
  };
  auto build_le = [&](std::uint64_t bound) {
    BddRef acc = kBddTrue;
    for (int i = w - 1; i >= 0; --i) {
      const bool bit = (bound >> (w - 1 - i)) & 1;
      const int v = off + i;
      if (bit) {
        acc = mgr_->apply_or(mgr_->nvar(v),
                             mgr_->apply_and(mgr_->var(v), acc));
      } else {
        acc = mgr_->apply_and(mgr_->nvar(v), acc);
      }
    }
    return acc;
  };

  BddRef r = kBddTrue;
  if (lo > 0) r = mgr_->apply_and(r, build_ge(lo));
  if (hi < maxv) r = mgr_->apply_and(r, build_le(hi));
  return wrap(r);
}

HeaderSet HeaderSpace::singleton(const PacketHeader& h) const {
  // A singleton is one 104-long chain: build it bottom-up, deepest field
  // first, threading each cube onto the previous one. Zero apply() calls
  // (the old version chained five apply_and over separate cubes).
  BddRef r = mgr_->cube_onto(kBddTrue, field_offset(Field::DstPort),
                             h.dst_port, 16, 16);
  r = mgr_->cube_onto(r, field_offset(Field::SrcPort), h.src_port, 16, 16);
  r = mgr_->cube_onto(r, field_offset(Field::Proto), h.proto, 8, 8);
  r = mgr_->cube_onto(r, field_offset(Field::DstIp), h.dst_ip.value, 32, 32);
  r = mgr_->cube_onto(r, field_offset(Field::SrcIp), h.src_ip.value, 32, 32);
  return wrap(r);
}

HeaderSet HeaderSpace::union_all(const std::vector<HeaderSet>& xs) const {
  std::vector<BddRef> refs;
  refs.reserve(xs.size());
  for (const auto& x : xs) {
    assert(!x.mgr_ || x.mgr_ == mgr_);
    refs.push_back(x.ref());
  }
  return wrap(mgr_->or_all(refs));
}

HeaderSet HeaderSet::operator&(const HeaderSet& o) const {
  assert(mgr_ && mgr_ == o.mgr_);
  return HeaderSet(mgr_, mgr_->apply_and(ref_, o.ref_));
}

HeaderSet HeaderSet::operator|(const HeaderSet& o) const {
  assert(mgr_ && mgr_ == o.mgr_);
  return HeaderSet(mgr_, mgr_->apply_or(ref_, o.ref_));
}

HeaderSet HeaderSet::operator-(const HeaderSet& o) const {
  assert(mgr_ && mgr_ == o.mgr_);
  return HeaderSet(mgr_, mgr_->apply_diff(ref_, o.ref_));
}

HeaderSet HeaderSet::operator^(const HeaderSet& o) const {
  assert(mgr_ && mgr_ == o.mgr_);
  return HeaderSet(mgr_, mgr_->apply_xor(ref_, o.ref_));
}

HeaderSet HeaderSet::operator~() const {
  assert(mgr_);
  return HeaderSet(mgr_, mgr_->apply_not(ref_));
}

bool HeaderSet::subset_of(const HeaderSet& o) const {
  assert(mgr_ && mgr_ == o.mgr_);
  return mgr_->implies(ref_, o.ref_);
}

bool HeaderSet::contains(const PacketHeader& h) const {
  if (!mgr_) return false;
  // Hot path of tag verification: packed words + inline eval_with — no
  // std::function, one shift+mask per BDD level.
  const std::array<std::uint64_t, 2> w = h.bits_packed();
  return mgr_->eval_with(ref_, [&w](int v) {
    return (w[static_cast<std::size_t>(v) >> 6] >> (63 - (v & 63))) & 1;
  });
}

double HeaderSet::count() const { return mgr_ ? mgr_->sat_count(ref_) : 0.0; }

std::size_t HeaderSet::bdd_size() const {
  return mgr_ ? mgr_->size(ref_) : 0;
}

HeaderSet HeaderSet::set_field(Field f, std::uint64_t value) const {
  assert(mgr_);
  const BddRef forgotten =
      mgr_->exists(ref_, field_offset(f), field_width(f));
  const BddRef pinned = mgr_->apply_and(
      forgotten, mgr_->cube(field_offset(f), value, field_width(f),
                            field_width(f)));
  return HeaderSet(mgr_, pinned);
}

std::optional<PacketHeader> HeaderSet::any_member() const {
  if (!mgr_) return std::nullopt;
  auto bits = mgr_->pick_one(ref_);
  if (!bits) return std::nullopt;
  return header_from_bits(*bits);
}

std::optional<PacketHeader> HeaderSet::sample(Rng& rng) const {
  if (!mgr_) return std::nullopt;
  auto bits = mgr_->pick_random_with(ref_, [&rng] { return rng.chance(0.5); });
  if (!bits) return std::nullopt;
  return header_from_bits(*bits);
}

}  // namespace veridp
