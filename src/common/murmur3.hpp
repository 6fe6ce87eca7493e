// MurmurHash3 (x86 32-bit variant).
//
// The paper's tagging scheme (§5) derives Bloom-filter hash functions from
// "the two halves of a 32-bit Murmur3 hash": g_i(x) = h1(x) + i*h2(x),
// following Kirsch & Mitzenmacher. We implement Murmur3_x86_32 from the
// public-domain reference algorithm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace veridp {

/// Murmur3 32-bit hash of `data` with the given seed.
std::uint32_t murmur3_32(std::span<const std::byte> data,
                         std::uint32_t seed = 0);

/// Convenience overload hashing a trivially-copyable value.
template <typename T>
  requires std::is_trivially_copyable_v<T>
std::uint32_t murmur3_32(const T& value, std::uint32_t seed = 0) {
  return murmur3_32(
      std::span<const std::byte>(reinterpret_cast<const std::byte*>(&value),
                                 sizeof value),
      seed);
}

}  // namespace veridp
