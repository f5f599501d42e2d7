#include "codes/bch.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "common/rng.h"

namespace sudoku {
namespace {

BitVec random_codeword(const Bch& bch, Rng& rng) {
  BitVec cw(bch.codeword_bits());
  for (std::size_t i = 0; i < bch.message_bits(); ++i)
    if (rng.next_bool(0.5)) cw.set(i);
  bch.encode(cw);
  return cw;
}

void flip_random_distinct(BitVec& cw, int count, Rng& rng) {
  std::set<std::uint64_t> used;
  while (static_cast<int>(used.size()) < count) {
    const auto pos = rng.next_below(cw.size());
    if (used.insert(pos).second) cw.flip(pos);
  }
}

TEST(Bch, ParityBitsMatchPaperBudget) {
  // ECC-t over 512-bit data with m = 10 costs 10·t bits — Table II's
  // "60 bits per line" for ECC-6.
  for (int t = 1; t <= 6; ++t) {
    Bch bch(10, t, 512);
    EXPECT_EQ(bch.parity_bits(), static_cast<std::size_t>(10 * t)) << "t=" << t;
  }
}

TEST(Bch, CleanCodewordDecodesClean) {
  Rng rng(1);
  Bch bch(10, 3, 512);
  for (int trial = 0; trial < 10; ++trial) {
    BitVec cw = random_codeword(bch, rng);
    const auto res = bch.decode(cw);
    EXPECT_EQ(res.status, Bch::DecodeStatus::kClean);
    EXPECT_EQ(res.corrected, 0);
  }
}

class BchCorrection : public ::testing::TestWithParam<int> {};

TEST_P(BchCorrection, CorrectsUpToTErrors) {
  const int t = GetParam();
  Rng rng(100 + t);
  Bch bch(10, t, 512);
  for (int nerr = 1; nerr <= t; ++nerr) {
    for (int trial = 0; trial < 8; ++trial) {
      const BitVec good = random_codeword(bch, rng);
      BitVec bad = good;
      flip_random_distinct(bad, nerr, rng);
      const auto res = bch.decode(bad);
      EXPECT_EQ(res.status, Bch::DecodeStatus::kCorrected)
          << "t=" << t << " nerr=" << nerr;
      EXPECT_EQ(res.corrected, nerr);
      EXPECT_EQ(bad, good);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTolerances, BchCorrection, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Bch, ErrorsInParityRegionAlsoCorrected) {
  Rng rng(2);
  Bch bch(10, 2, 512);
  const BitVec good = random_codeword(bch, rng);
  BitVec bad = good;
  bad.flip(good.size() - 1);  // last parity bit
  bad.flip(good.size() - 7);
  const auto res = bch.decode(bad);
  EXPECT_EQ(res.status, Bch::DecodeStatus::kCorrected);
  EXPECT_EQ(bad, good);
}

TEST(Bch, BeyondTNeverClaimsClean) {
  // t+1 or more errors must never be reported as a clean codeword: they
  // either get flagged uncorrectable or miscorrect to a *different*
  // codeword (the decoder cannot silently claim "no errors").
  Rng rng(3);
  Bch bch(10, 2, 512);
  const BitVec good = random_codeword(bch, rng);
  int miscorrections = 0;
  int detected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    BitVec bad = good;
    flip_random_distinct(bad, 5, rng);
    const auto res = bch.decode(bad);
    ASSERT_NE(res.status, Bch::DecodeStatus::kClean);
    if (res.status == Bch::DecodeStatus::kUncorrectable) {
      ++detected;
    } else {
      ++miscorrections;
      EXPECT_NE(bad, good);  // miscorrection produced some other codeword
    }
  }
  // With 5 errors against a t=2 decoder the overwhelming majority of
  // patterns are detected.
  EXPECT_GT(detected, miscorrections);
}

TEST(Bch, ShortMessageWorks) {
  Rng rng(4);
  Bch bch(8, 2, 100);
  const BitVec good = random_codeword(bch, rng);
  BitVec bad = good;
  flip_random_distinct(bad, 2, rng);
  const auto res = bch.decode(bad);
  EXPECT_EQ(res.status, Bch::DecodeStatus::kCorrected);
  EXPECT_EQ(bad, good);
}

TEST(Bch, HiEccGeometryEcc6Over1KB) {
  // Hi-ECC baseline (paper §VIII-C): ECC-6 over 8192 data bits (m = 14).
  Rng rng(5);
  Bch bch(14, 6, 8192);
  EXPECT_EQ(bch.parity_bits(), 84u);
  const BitVec good = random_codeword(bch, rng);
  BitVec bad = good;
  flip_random_distinct(bad, 6, rng);
  const auto res = bch.decode(bad);
  EXPECT_EQ(res.status, Bch::DecodeStatus::kCorrected);
  EXPECT_EQ(bad, good);
}

TEST(Bch, EncodeIsSystematic) {
  // The message bits appear verbatim in the codeword prefix.
  Rng rng(6);
  Bch bch(10, 3, 512);
  BitVec cw(bch.codeword_bits());
  BitVec msg(512);
  for (int i = 0; i < 512; ++i)
    if (rng.next_bool(0.5)) {
      msg.set(i);
      cw.set(i);
    }
  bch.encode(cw);
  for (int i = 0; i < 512; ++i) EXPECT_EQ(cw.test(i), msg.test(i));
}

TEST(Bch, ConstructorRejectsInvalidArgumentsInEveryBuildType) {
  EXPECT_THROW(Bch(10, 0, 512), std::invalid_argument);   // t < 1
  EXPECT_THROW(Bch(10, -1, 512), std::invalid_argument);
  EXPECT_THROW(Bch(2, 1, 1), std::invalid_argument);      // m < 3
  EXPECT_THROW(Bch(17, 1, 512), std::invalid_argument);   // m > 16
  EXPECT_THROW(Bch(10, 10, 512), std::invalid_argument);  // t·m = 100 > 96
  EXPECT_THROW(Bch(10, 4, 984), std::invalid_argument);   // 984 + 40 > 1023
  EXPECT_THROW(Bch(16, 6, 65536), std::invalid_argument);
}

TEST(Bch, ConstructorAcceptsTheLimits) {
  EXPECT_EQ(Bch(10, 4, 983).codeword_bits(), 1023u);  // natural length
  EXPECT_EQ(Bch(16, 6, 32768).parity_bits(), Bch::kMaxSyndromeWords);
  EXPECT_EQ(Bch(3, 1, 4).codeword_bits(), 7u);  // Hamming(7,4)
}

TEST(Bch, AllZeroMessageEncodesToAllZero) {
  Bch bch(10, 4, 512);
  BitVec cw(bch.codeword_bits());
  bch.encode(cw);
  EXPECT_TRUE(cw.none());
}

}  // namespace
}  // namespace sudoku
