#include "codes/gf2poly.h"

#include <gtest/gtest.h>

namespace sudoku::gf2 {
namespace {

TEST(Gf2Poly, Degree) {
  EXPECT_EQ(degree(0), -1);
  EXPECT_EQ(degree(1), 0);
  EXPECT_EQ(degree(0b1011), 3);
  EXPECT_EQ(degree(std::uint64_t{1} << 63), 63);
}

TEST(Gf2Poly, CarrylessMultiply) {
  // (x+1)(x+1) = x^2 + 1 over GF(2).
  EXPECT_EQ(mul(0b11, 0b11), 0b101u);
  // (x^2+x+1)(x+1) = x^3 + 1.
  EXPECT_EQ(mul(0b111, 0b11), 0b1001u);
  EXPECT_EQ(mul(5, 0), 0u);
  EXPECT_EQ(mul(5, 1), 5u);
}

TEST(Gf2Poly, Mod) {
  // x^3 + 1 mod (x^2 + x + 1): x^3+1 = (x+1)(x^2+x+1) + 0.
  EXPECT_EQ(mod(0b1001, 0b111), 0u);
  // x^2 mod (x^2 + x + 1) = x + 1.
  EXPECT_EQ(mod(0b100, 0b111), 0b11u);
  EXPECT_EQ(mod(0b10, 0b111), 0b10u);  // already reduced
}

TEST(Gf2Poly, MulModAgreesWithMulThenMod) {
  const std::uint64_t m = 0b100101;  // x^5 + x^2 + 1
  for (std::uint64_t a = 0; a < 32; ++a) {
    for (std::uint64_t b = 0; b < 32; ++b) {
      EXPECT_EQ(mulmod(a, b, m), mod(mul(a, b), m));
    }
  }
}

TEST(Gf2Poly, PowXMod) {
  const std::uint64_t m = 0b1011;  // x^3 + x + 1 (primitive)
  // Order of x is 7: x^7 = 1, x^k != 1 for k < 7.
  EXPECT_EQ(pow_x_mod(7, m), 1u);
  for (std::uint64_t e = 1; e < 7; ++e) EXPECT_NE(pow_x_mod(e, m), 1u) << e;
}

// Carry-less a·b in 128 bits.
unsigned __int128 mul128(std::uint64_t a, std::uint64_t b) {
  unsigned __int128 r = 0;
  for (int i = 0; i < 64; ++i) {
    if ((b >> i) & 1u) r ^= static_cast<unsigned __int128>(a) << i;
  }
  return r;
}

TEST(Gf2Poly, PowXDivIsTheQuotient) {
  // floor(x^e / m)·m + (x^e mod m) == x^e for every e whose quotient fits
  // a word, including the CRC-31 Barrett constant floor(x^94 / g).
  const std::uint64_t crc_g = mul(find_primitive(30), 0b11);
  for (const std::uint64_t m : {std::uint64_t{0b11}, std::uint64_t{0b1011}, crc_g}) {
    const int dm = degree(m);
    for (std::uint64_t e = static_cast<std::uint64_t>(dm); e <= static_cast<std::uint64_t>(dm) + 63;
         ++e) {
      const unsigned __int128 xe = static_cast<unsigned __int128>(1) << e;
      ASSERT_EQ(mul128(pow_x_div(e, m), m) ^ pow_x_mod(e, m), xe) << "m " << m << " e " << e;
    }
  }
}

TEST(Gf2Poly, KnownIrreducibles) {
  EXPECT_TRUE(is_irreducible(0b111, 2));    // x^2+x+1
  EXPECT_TRUE(is_irreducible(0b1011, 3));   // x^3+x+1
  EXPECT_TRUE(is_irreducible(0b1101, 3));   // x^3+x^2+1
  EXPECT_FALSE(is_irreducible(0b1001, 3));  // x^3+1 = (x+1)(x^2+x+1)
  EXPECT_FALSE(is_irreducible(0b101, 2));   // x^2+1 = (x+1)^2
}

TEST(Gf2Poly, KnownPrimitives) {
  EXPECT_TRUE(is_primitive(0b111, 2));
  EXPECT_TRUE(is_primitive(0b1011, 3));
  EXPECT_TRUE(is_primitive(0b10011, 4));       // x^4+x+1
  EXPECT_FALSE(is_primitive(0b11111, 4));      // x^4+x^3+x^2+x+1: order 5
  EXPECT_TRUE(is_primitive(0b10000001001, 10));  // x^10+x^3+1 (BCH field)
}

TEST(Gf2Poly, FindPrimitiveReturnsPrimitive) {
  for (const int d : {2, 3, 4, 5, 8, 10}) {
    const auto p = find_primitive(d);
    ASSERT_NE(p, 0u) << d;
    EXPECT_EQ(degree(p), d);
    EXPECT_TRUE(is_primitive(p, d)) << d;
  }
}

TEST(Gf2Poly, Degree30PrimitiveForCrc) {
  // The CRC-31 construction depends on this search succeeding and being
  // genuinely primitive (full period 2^30 - 1).
  const auto p30 = find_primitive(30);
  ASSERT_NE(p30, 0u);
  EXPECT_EQ(degree(p30), 30);
  EXPECT_TRUE(is_primitive(p30, 30));
  // g = (x+1)·p30 must have degree 31 and an even number of terms
  // (every multiple of (x+1) has even weight).
  const auto g = mul(p30, 0b11);
  EXPECT_EQ(degree(g), 31);
  EXPECT_EQ(__builtin_popcountll(g) % 2, 0);
}

}  // namespace
}  // namespace sudoku::gf2
