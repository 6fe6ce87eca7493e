#include "common/murmur3.hpp"

#include <bit>
#include <cstring>

namespace veridp {

std::uint32_t murmur3_32(std::span<const std::byte> data, std::uint32_t seed) {
  const std::size_t len = data.size();
  const std::size_t nblocks = len / 4;
  std::uint32_t h1 = seed;

  constexpr std::uint32_t c1 = 0xcc9e2d51;
  constexpr std::uint32_t c2 = 0x1b873593;

  const std::byte* p = data.data();
  for (std::size_t i = 0; i < nblocks; ++i) {
    std::uint32_t k1;
    std::memcpy(&k1, p + i * 4, 4);
    k1 *= c1;
    k1 = std::rotl(k1, 15);
    k1 *= c2;
    h1 ^= k1;
    h1 = std::rotl(h1, 13);
    h1 = h1 * 5 + 0xe6546b64;
  }

  const std::byte* tail = p + nblocks * 4;
  std::uint32_t k1 = 0;
  switch (len & 3) {
    case 3:
      k1 ^= std::to_integer<std::uint32_t>(tail[2]) << 16;
      [[fallthrough]];
    case 2:
      k1 ^= std::to_integer<std::uint32_t>(tail[1]) << 8;
      [[fallthrough]];
    case 1:
      k1 ^= std::to_integer<std::uint32_t>(tail[0]);
      k1 *= c1;
      k1 = std::rotl(k1, 15);
      k1 *= c2;
      h1 ^= k1;
  }

  h1 ^= static_cast<std::uint32_t>(len);
  h1 ^= h1 >> 16;
  h1 *= 0x85ebca6b;
  h1 ^= h1 >> 13;
  h1 *= 0xc2b2ae35;
  h1 ^= h1 >> 16;
  return h1;
}

}  // namespace veridp
