#include "common/bitvec.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace sudoku {
namespace {

TEST(BitVec, StartsZeroed) {
  BitVec v(553);
  EXPECT_EQ(v.size(), 553u);
  EXPECT_TRUE(v.none());
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, SetResetFlipTest) {
  BitVec v(100);
  v.set(0);
  v.set(63);
  v.set(64);
  v.set(99);
  EXPECT_TRUE(v.test(0));
  EXPECT_TRUE(v.test(63));
  EXPECT_TRUE(v.test(64));
  EXPECT_TRUE(v.test(99));
  EXPECT_FALSE(v.test(1));
  EXPECT_EQ(v.popcount(), 4u);
  v.reset(63);
  EXPECT_FALSE(v.test(63));
  v.flip(63);
  EXPECT_TRUE(v.test(63));
  v.flip(63);
  EXPECT_FALSE(v.test(63));
  EXPECT_EQ(v.popcount(), 3u);
}

TEST(BitVec, AssignMatchesSetReset) {
  BitVec v(10);
  v.assign(3, true);
  EXPECT_TRUE(v.test(3));
  v.assign(3, false);
  EXPECT_FALSE(v.test(3));
}

TEST(BitVec, XorIsSelfInverse) {
  Rng rng(7);
  BitVec a(553), b(553);
  for (int i = 0; i < 100; ++i) a.flip(rng.next_below(553));
  for (int i = 0; i < 100; ++i) b.flip(rng.next_below(553));
  BitVec c = a;
  c ^= b;
  c ^= b;
  EXPECT_EQ(c, a);
}

TEST(BitVec, XorComputesSymmetricDifference) {
  BitVec a(8), b(8);
  a.set(1);
  a.set(2);
  b.set(2);
  b.set(3);
  const BitVec c = a ^ b;
  EXPECT_TRUE(c.test(1));
  EXPECT_FALSE(c.test(2));
  EXPECT_TRUE(c.test(3));
  EXPECT_EQ(c.popcount(), 2u);
}

TEST(BitVec, SetPositionsAscending) {
  BitVec v(553);
  v.set(5);
  v.set(64);
  v.set(552);
  std::vector<std::size_t> pos;
  v.set_positions(pos);
  ASSERT_EQ(pos.size(), 3u);
  EXPECT_EQ(pos[0], 5u);
  EXPECT_EQ(pos[1], 64u);
  EXPECT_EQ(pos[2], 552u);
}

TEST(BitVec, SetPositionsHonorsLimit) {
  BitVec v(100);
  for (int i = 0; i < 20; ++i) v.set(i * 5);
  std::vector<std::size_t> pos;
  v.set_positions(pos, 7);
  EXPECT_EQ(pos.size(), 7u);
  v.set_positions(pos, 0);
  EXPECT_EQ(pos.size(), 20u);
  EXPECT_EQ(pos.back(), 95u);
}

TEST(BitVec, SetPositionsReplacesPreviousContents) {
  BitVec v(100);
  v.set(42);
  std::vector<std::size_t> pos = {1, 2, 3};
  v.set_positions(pos);
  EXPECT_EQ(pos, std::vector<std::size_t>{42});
  v.clear();
  v.set_positions(pos);
  EXPECT_TRUE(pos.empty());
}

TEST(BitVec, DistanceCountsDifferingBits) {
  BitVec a(64), b(64);
  a.set(0);
  a.set(10);
  b.set(10);
  b.set(20);
  EXPECT_EQ(a.distance(b), 2u);
  EXPECT_EQ(a.distance(a), 0u);
}

TEST(BitVec, ClearZeroesEverything) {
  BitVec v(130);
  v.set(0);
  v.set(129);
  v.clear();
  EXPECT_TRUE(v.none());
  EXPECT_EQ(v.size(), 130u);
}

TEST(BitVec, ResizePreservesPrefix) {
  BitVec v(64);
  v.set(10);
  v.resize(128);
  EXPECT_TRUE(v.test(10));
  EXPECT_FALSE(v.test(100));
  EXPECT_EQ(v.size(), 128u);
}

TEST(BitVec, EqualityIsValueBased) {
  BitVec a(65), b(65);
  EXPECT_EQ(a, b);
  a.set(64);
  EXPECT_NE(a, b);
  b.set(64);
  EXPECT_EQ(a, b);
}

TEST(BitVec, AnyReflectsContents) {
  BitVec v(553);
  EXPECT_FALSE(v.any());
  v.set(552);
  EXPECT_TRUE(v.any());
}

TEST(BitVec, ToStringMatchesBits) {
  BitVec v(4);
  v.set(1);
  v.set(3);
  EXPECT_EQ(v.to_string(), "0101");
}

TEST(BitVec, GetBitsMatchesPerBitReads) {
  BitVec v(200);
  for (std::size_t i = 0; i < 200; i += 3) v.set(i);
  v.set(63);
  v.set(64);
  v.set(127);
  for (const std::size_t pos : {std::size_t{0}, std::size_t{1}, std::size_t{60},
                                std::size_t{63}, std::size_t{64}, std::size_t{100},
                                std::size_t{136}}) {
    for (const unsigned nbits : {1u, 7u, 31u, 32u, 63u, 64u}) {
      if (pos + nbits > 200) continue;
      const std::uint64_t got = v.get_bits(pos, nbits);
      for (unsigned b = 0; b < nbits; ++b) {
        EXPECT_EQ((got >> b) & 1u, v.test(pos + b) ? 1u : 0u)
            << "pos " << pos << " nbits " << nbits << " b " << b;
      }
      if (nbits < 64) {
        EXPECT_EQ(got >> nbits, 0u);
      }
    }
  }
}

TEST(BitVec, SetBitsRoundTripsAndPreservesNeighbours) {
  for (const std::size_t pos : {std::size_t{0}, std::size_t{33}, std::size_t{63},
                                std::size_t{64}, std::size_t{90}}) {
    for (const unsigned nbits : {1u, 13u, 31u, 64u}) {
      BitVec v(200);
      for (std::size_t i = 0; i < 200; ++i)
        if (i % 2) v.set(i);
      const BitVec before = v;
      const std::uint64_t value = 0xA5C3F00D12345678ull;
      v.set_bits(pos, nbits, value);
      EXPECT_EQ(v.get_bits(pos, nbits),
                nbits == 64 ? value : (value & ((std::uint64_t{1} << nbits) - 1)));
      for (std::size_t i = 0; i < 200; ++i) {
        if (i >= pos && i < pos + nbits) continue;
        EXPECT_EQ(v.test(i), before.test(i)) << "pos " << pos << " nbits " << nbits
                                             << " neighbour " << i;
      }
    }
  }
}

// The word-parallel comparison/distance kernels must agree with per-bit
// scans, including awkward tail widths (the scrub and SDC-verify paths
// lean on them every interval).
TEST(BitVec, DistanceAndEqualityAgreeWithPerBitScan) {
  std::uint64_t state = 42;
  for (const std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                              std::size_t{65}, std::size_t{553}, std::size_t{574}}) {
    BitVec a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (splitmix64_next(state) & 1) a.set(i);
      if (splitmix64_next(state) & 1) b.set(i);
    }
    std::size_t manual = 0;
    for (std::size_t i = 0; i < n; ++i) manual += a.test(i) != b.test(i);
    EXPECT_EQ(a.distance(b), manual) << "n " << n;
    EXPECT_EQ(a == b, manual == 0) << "n " << n;
    BitVec c = a;
    EXPECT_EQ(a.distance(c), 0u);
    EXPECT_EQ(a, c);
    if (n > 1) {
      c.flip(n - 1);  // tail-word bit
      EXPECT_EQ(a.distance(c), 1u) << "n " << n;
      EXPECT_NE(a, c) << "n " << n;
    }
  }
}

}  // namespace
}  // namespace sudoku
