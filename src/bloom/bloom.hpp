// Bloom-filter packet tags (paper §3.3, §5).
//
// Each switch ORs BF(input_port || switch_ID || output_port) into the
// packet's tag. The filter uses k = 3 hash functions derived by the
// Kirsch–Mitzenmacher construction g_i(x) = h1(x) + i*h2(x), where h1 and
// h2 are the two 16-bit halves of a 32-bit Murmur3 hash of the hop — the
// exact scheme the paper describes (and Cassandra uses). The paper's
// prototype uses a 16-bit filter carried in a VLAN TCI; the width is a
// runtime parameter here because Figure 12 sweeps it from 8 to 64 bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace veridp {

// veridp-lint: hot-path

/// A Bloom filter of up to 64 bits, stored inline. Value type.
class BloomTag {
 public:
  /// An empty (all-zero) tag of `bits` width. Width must be in [1, 64].
  explicit BloomTag(int bits = kDefaultBits);

  /// Number of hash functions (fixed at 3, per the paper).
  static constexpr int kNumHashes = 3;
  /// Paper default: 16-bit tag carried in a VLAN tag's TCI.
  static constexpr int kDefaultBits = 16;

  /// BF(x||s||y): a tag containing exactly the one hop element.
  static BloomTag of_hop(const Hop& h, int bits = kDefaultBits);

  /// Tag of a whole hop sequence: BF(h0) | BF(h1) | ... — what Algorithm
  /// 1 accumulates along a path.
  static BloomTag of_path(const Hop* hops, std::size_t n,
                          int bits = kDefaultBits);

  /// Reconstitutes a tag from its raw bit pattern — the wire codec's
  /// decode path (the VLAN TCI / report payload carry the raw value).
  static BloomTag from_raw(std::uint64_t value, int bits);

  /// Inserts a hop (tag <- tag OR BF(hop), Algorithm 1 line 4).
  void insert(const Hop& h);

  /// Membership test: true if the hop may be in the set encoded by this
  /// tag (Bloom semantics: false positives possible, no false negatives).
  /// This is Algorithm 4's test "BF(hop) AND tag == BF(hop)".
  [[nodiscard]] bool may_contain(const Hop& h) const;

  /// Bit-by-bit OR of two tags (the ⊔ of Algorithm 1/2).
  BloomTag operator|(const BloomTag& o) const;
  BloomTag& operator|=(const BloomTag& o);

  friend bool operator==(const BloomTag&, const BloomTag&) = default;

  [[nodiscard]] int bits() const { return bits_; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  [[nodiscard]] bool zero() const { return value_ == 0; }
  /// Number of set bits (diagnostics / saturation metrics).
  [[nodiscard]] int popcount() const;

  /// Resets to all-zero (Algorithm 1 line 2).
  void clear() { value_ = 0; }

  /// Binary string, MSB first, e.g. "0010100010000001".
  [[nodiscard]] std::string str() const;

 private:
  std::uint64_t hop_mask(const Hop& h) const;

  std::uint64_t value_ = 0;
  int bits_ = kDefaultBits;
};

}  // namespace veridp
