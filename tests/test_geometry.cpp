#include "raid/geometry.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace sudoku {
namespace {

// A group's lines in slot order, under Hash-1 or Hash-2.
std::vector<std::uint64_t> members(const SkewedHash& h, std::uint64_t group, int which_hash) {
  std::vector<std::uint64_t> v(h.geometry().group_size);
  for (std::uint32_t s = 0; s < v.size(); ++s) {
    v[s] = which_hash == 1 ? h.member1(group, s) : h.member2(group, s);
  }
  return v;
}

RaidGeometry small_geo() {
  RaidGeometry g;
  g.num_lines = 16;
  g.group_size = 4;
  return g;
}

TEST(RaidGeometry, Counts) {
  RaidGeometry g;  // defaults: 1M lines, 512/group
  EXPECT_EQ(g.num_groups(), 2048u);
  EXPECT_EQ(g.group_bits(), 9u);
  EXPECT_EQ(g.line_bits(), 20u);
  EXPECT_TRUE(g.valid());
  EXPECT_TRUE(g.supports_skewed_hash());
}

TEST(RaidGeometry, SkewedHashNeedsEnoughBits) {
  RaidGeometry g;
  g.num_lines = 256;
  g.group_size = 512;  // group larger than cache
  EXPECT_FALSE(g.valid());
  g.num_lines = 512;
  g.group_size = 512;
  EXPECT_TRUE(g.valid());
  EXPECT_FALSE(g.supports_skewed_hash());  // needs 2·9 = 18 line bits
}

TEST(SkewedHash, PaperExampleSixteenLines) {
  // Figure 5: 16 lines, groups of 4. Hash-1 groups consecutive lines;
  // Hash-2 groups every fourth line.
  SkewedHash h(small_geo());
  EXPECT_EQ(h.group1(0), 0u);
  EXPECT_EQ(h.group1(3), 0u);
  EXPECT_EQ(h.group1(4), 1u);
  EXPECT_EQ(h.group1(15), 3u);
  // Hash-2: lines {0,4,8,12} share a group, {1,5,9,13} share another...
  EXPECT_EQ(h.group2(0), h.group2(4));
  EXPECT_EQ(h.group2(0), h.group2(8));
  EXPECT_EQ(h.group2(0), h.group2(12));
  EXPECT_NE(h.group2(0), h.group2(1));
}

TEST(SkewedHash, MembersRoundTrip) {
  SkewedHash h(small_geo());
  for (std::uint64_t g = 0; g < 4; ++g) {
    const auto m1 = members(h, g, 1);
    ASSERT_EQ(m1.size(), 4u);
    for (std::uint32_t s = 0; s < 4; ++s) {
      EXPECT_EQ(h.group1(m1[s]), g);
      EXPECT_EQ(h.slot1(m1[s]), s);
    }
    const auto m2 = members(h, g, 2);
    for (std::uint32_t s = 0; s < 4; ++s) {
      EXPECT_EQ(h.group2(m2[s]), g);
      EXPECT_EQ(h.slot2(m2[s]), s);
    }
  }
}

TEST(SkewedHash, EveryLineInExactlyOneGroupPerHash) {
  SkewedHash h(small_geo());
  std::set<std::uint64_t> seen1, seen2;
  for (std::uint64_t g = 0; g < 4; ++g) {
    for (const auto l : members(h, g, 1)) EXPECT_TRUE(seen1.insert(l).second);
    for (const auto l : members(h, g, 2)) EXPECT_TRUE(seen2.insert(l).second);
  }
  EXPECT_EQ(seen1.size(), 16u);
  EXPECT_EQ(seen2.size(), 16u);
}

TEST(SkewedHash, DisjointnessGuarantee) {
  // Paper §V-A: lines sharing a Hash-1 group never share a Hash-2 group.
  SkewedHash h(small_geo());
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = a + 1; b < 16; ++b) {
      if (h.group1(a) == h.group1(b)) {
        EXPECT_NE(h.group2(a), h.group2(b)) << a << "," << b;
      }
    }
  }
}

TEST(SkewedHash, DisjointnessGuaranteeFullScale) {
  // Spot-check the 1M-line geometry: all pairs within a few Hash-1 groups.
  RaidGeometry g;
  SkewedHash h(g);
  for (const std::uint64_t grp : {0ull, 1ull, 1000ull, 2047ull}) {
    const auto m1 = members(h, grp, 1);
    for (std::size_t i = 0; i < m1.size(); ++i) {
      for (std::size_t j = i + 1; j < m1.size(); j += 37) {
        ASSERT_NE(h.group2(m1[i]), h.group2(m1[j]));
      }
    }
  }
}

TEST(SkewedHash, Hash2GroupsHaveFullSize) {
  RaidGeometry g;
  SkewedHash h(g);
  const auto m = members(h, 12345 % g.num_groups(), 2);
  EXPECT_EQ(m.size(), 512u);
  std::set<std::uint64_t> uniq(m.begin(), m.end());
  EXPECT_EQ(uniq.size(), 512u);
  for (const auto l : m) EXPECT_LT(l, g.num_lines);
}

TEST(SkewedHash, GroupIdsInRange) {
  RaidGeometry g;
  SkewedHash h(g);
  for (std::uint64_t line = 0; line < g.num_lines; line += 4097) {
    EXPECT_LT(h.group1(line), g.num_groups());
    EXPECT_LT(h.group2(line), g.num_groups());
  }
}

}  // namespace
}  // namespace sudoku
