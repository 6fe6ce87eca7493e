// IPv4 addresses and prefixes.
//
// Forwarding rules in the paper match IP prefixes (§4.4 restricts the
// incremental-update treatment to prefix rules); ACLs additionally match
// transport ports. This header provides the small value types those layers
// share.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace veridp {

/// An IPv4 address in host byte order.
struct Ipv4 {
  std::uint32_t value = 0;

  friend bool operator==(const Ipv4&, const Ipv4&) = default;
  friend auto operator<=>(const Ipv4&, const Ipv4&) = default;

  /// Builds from dotted-quad components: Ipv4::of(10, 0, 1, 2).
  static constexpr Ipv4 of(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                           std::uint8_t d) {
    return Ipv4{(std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
                (std::uint32_t{c} << 8) | std::uint32_t{d}};
  }
};

/// Parses "a.b.c.d"; returns nullopt on malformed input.
std::optional<Ipv4> parse_ipv4(const std::string& s);

/// Formats as dotted quad.
std::string to_string(Ipv4 ip);

/// An IPv4 prefix "addr/len". Bits below the prefix length are zeroed on
/// construction so equal prefixes compare equal.
struct Prefix {
  std::uint32_t addr = 0;  ///< network address, host byte order
  std::uint8_t len = 0;    ///< prefix length in [0, 32]

  Prefix() = default;
  Prefix(std::uint32_t a, std::uint8_t l) : addr(mask(l) & a), len(l) {}
  Prefix(Ipv4 ip, std::uint8_t l) : Prefix(ip.value, l) {}

  friend bool operator==(const Prefix&, const Prefix&) = default;
  friend auto operator<=>(const Prefix&, const Prefix&) = default;

  /// The netmask for a given prefix length (mask(0) == 0).
  static constexpr std::uint32_t mask(std::uint8_t l) {
    return l == 0 ? 0u : ~std::uint32_t{0} << (32 - l);
  }

  /// True if this prefix contains address `ip`.
  [[nodiscard]] bool contains(Ipv4 ip) const {
    return (ip.value & mask(len)) == addr;
  }

  /// True if this prefix contains (is a superset of, or equal to) `other`.
  [[nodiscard]] bool contains(const Prefix& other) const {
    return len <= other.len && (other.addr & mask(len)) == addr;
  }

  /// True if the prefix is the whole address space 0.0.0.0/0.
  [[nodiscard]] bool is_any() const { return len == 0; }
};

/// Formats as "a.b.c.d/len".
std::string to_string(const Prefix& p);

}  // namespace veridp
