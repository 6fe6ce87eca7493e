// Murmur3 tests: reference vectors and statistical sanity.
#include "common/murmur3.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bitset>
#include <cstring>
#include <string>
#include <vector>

namespace veridp {
namespace {

std::uint32_t hash_str(const std::string& s, std::uint32_t seed = 0) {
  return murmur3_32(
      std::span<const std::byte>(reinterpret_cast<const std::byte*>(s.data()),
                                 s.size()),
      seed);
}

// Reference vectors for MurmurHash3_x86_32 (public-domain test values).
TEST(Murmur3, ReferenceVectors) {
  EXPECT_EQ(hash_str("", 0), 0u);
  EXPECT_EQ(hash_str("", 1), 0x514E28B7u);
  EXPECT_EQ(hash_str("test", 0), 0xBA6BD213u);
  EXPECT_EQ(hash_str("Hello, world!", 1234), 0xFAF6CDB3u);
  EXPECT_EQ(hash_str("The quick brown fox jumps over the lazy dog", 0x9747b28c),
            0x2FA826CDu);
}

TEST(Murmur3, TailLengthsAllWork) {
  // Exercise the 1-, 2-, 3-byte tail switch arms.
  EXPECT_NE(hash_str("a"), hash_str("b"));
  EXPECT_NE(hash_str("ab"), hash_str("ba"));
  EXPECT_NE(hash_str("abc"), hash_str("acb"));
  EXPECT_NE(hash_str("abcd"), hash_str("abce"));
  EXPECT_NE(hash_str("abcde"), hash_str("abcdf"));
}

TEST(Murmur3, Deterministic) {
  const std::uint32_t a = hash_str("veridp", 42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(hash_str("veridp", 42), a);
}

TEST(Murmur3, SeedChangesHash) {
  EXPECT_NE(hash_str("veridp", 0), hash_str("veridp", 1));
}

TEST(Murmur3, TriviallyCopyableOverload) {
  struct Wire {
    std::uint32_t a, b, c;
  } w{1, 2, 3};
  std::array<std::byte, sizeof w> raw;
  std::memcpy(raw.data(), &w, sizeof w);
  EXPECT_EQ(murmur3_32(w), murmur3_32(std::span<const std::byte>(raw)));
}

TEST(Murmur3, BitBalance) {
  // Over many inputs each output bit should be set roughly half the time.
  std::array<int, 32> ones{};
  constexpr int kN = 4096;
  for (std::uint32_t i = 0; i < kN; ++i) {
    const std::uint32_t h = murmur3_32(i);
    for (int b = 0; b < 32; ++b)
      if ((h >> b) & 1) ++ones[static_cast<std::size_t>(b)];
  }
  for (int b = 0; b < 32; ++b) {
    EXPECT_GT(ones[static_cast<std::size_t>(b)], kN * 40 / 100) << "bit " << b;
    EXPECT_LT(ones[static_cast<std::size_t>(b)], kN * 60 / 100) << "bit " << b;
  }
}

TEST(Murmur3, AvalancheOnSingleBitFlip) {
  // Flipping one input bit should flip ~16 of 32 output bits on average.
  int total_flips = 0;
  constexpr int kTrials = 512;
  for (std::uint32_t i = 0; i < kTrials; ++i) {
    const std::uint32_t h0 = murmur3_32(i);
    const std::uint32_t h1 = murmur3_32(i ^ 1u);
    total_flips += std::bitset<32>(h0 ^ h1).count();
  }
  const double avg = static_cast<double>(total_flips) / kTrials;
  EXPECT_GT(avg, 12.0);
  EXPECT_LT(avg, 20.0);
}

}  // namespace
}  // namespace veridp
