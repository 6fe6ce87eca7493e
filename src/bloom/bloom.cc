#include "bloom/bloom.hpp"

#include <bit>
#include <cassert>

#include "common/murmur3.hpp"

namespace veridp {

BloomTag::BloomTag(int bits) : bits_(bits) {
  assert(bits >= 1 && bits <= 64);
}

std::uint64_t BloomTag::hop_mask(const Hop& h) const {
  // Serialize the hop as x||s||y exactly once, hash with Murmur3, and
  // derive g_i = h1 + i*h2 from the two 16-bit halves (§5).
  struct Wire {
    std::uint32_t in;
    std::uint32_t sw;
    std::uint32_t out;
  } wire{h.in, h.sw, h.out};
  const std::uint32_t m = murmur3_32(wire);
  const std::uint32_t h1 = m & 0xffff;
  const std::uint32_t h2 = m >> 16;
  // g mod bits: for a power-of-two width that is a mask of the low bits,
  // which spares the three divisions per hop.
  const auto width = static_cast<std::uint32_t>(bits_);
  std::uint64_t mask = 0;
  if (std::has_single_bit(width)) {
    for (std::uint32_t i = 0; i < kNumHashes; ++i)
      mask |= std::uint64_t{1} << ((h1 + i * h2) & (width - 1));
  } else {
    for (std::uint32_t i = 0; i < kNumHashes; ++i)
      mask |= std::uint64_t{1} << ((h1 + i * h2) % width);
  }
  return mask;
}

BloomTag BloomTag::of_hop(const Hop& h, int bits) {
  BloomTag t(bits);
  t.insert(h);
  return t;
}

BloomTag BloomTag::of_path(const Hop* hops, std::size_t n, int bits) {
  BloomTag t(bits);
  for (std::size_t i = 0; i < n; ++i) t.insert(hops[i]);
  return t;
}

BloomTag BloomTag::from_raw(std::uint64_t value, int bits) {
  BloomTag t(bits);
  assert(bits == 64 || (value >> bits) == 0);
  t.value_ = value;
  return t;
}

void BloomTag::insert(const Hop& h) { value_ |= hop_mask(h); }

bool BloomTag::may_contain(const Hop& h) const {
  const std::uint64_t m = hop_mask(h);
  return (value_ & m) == m;
}

BloomTag BloomTag::operator|(const BloomTag& o) const {
  assert(bits_ == o.bits_);
  BloomTag t(bits_);
  t.value_ = value_ | o.value_;
  return t;
}

BloomTag& BloomTag::operator|=(const BloomTag& o) {
  assert(bits_ == o.bits_);
  value_ |= o.value_;
  return *this;
}

int BloomTag::popcount() const { return std::popcount(value_); }

std::string BloomTag::str() const {
  std::string s(static_cast<std::size_t>(bits_), '0');
  for (int i = 0; i < bits_; ++i)
    if ((value_ >> (bits_ - 1 - i)) & 1) s[static_cast<std::size_t>(i)] = '1';
  return s;
}

}  // namespace veridp
