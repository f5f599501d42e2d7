#include "codes/hamming.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.h"

namespace sudoku {
namespace {

BitVec random_codeword(const Hamming& h, Rng& rng) {
  BitVec cw(h.codeword_bits());
  for (std::size_t i = 0; i < h.message_bits(); ++i)
    if (rng.next_bool(0.5)) cw.set(i);
  h.encode(cw);
  return cw;
}

TEST(Hamming, SudokuLayoutUsesTenCheckBits) {
  // 543 message bits (512 data + 31 CRC) need 10 check bits — the "10 bits
  // per line" ECC-1 budget from the paper.
  Hamming h(543);
  EXPECT_EQ(h.check_bits(), 10u);
  EXPECT_EQ(h.codeword_bits(), 553u);
}

TEST(Hamming, RejectsCodesPastSixteenCheckBits) {
  // The syndrome kernels hold 16 check bits: 65519 message bits is the
  // widest code they serve.
  EXPECT_EQ(Hamming(65519).check_bits(), 16u);
  EXPECT_THROW(Hamming(65520), std::invalid_argument);
}

TEST(Hamming, EncodedWordHasZeroSyndrome) {
  Rng rng(1);
  Hamming h(543);
  for (int t = 0; t < 50; ++t) {
    const BitVec cw = random_codeword(h, rng);
    EXPECT_EQ(h.syndrome(cw), 0u);
  }
}

TEST(Hamming, CorrectsEverySingleBitError) {
  Rng rng(2);
  Hamming h(543);
  const BitVec cw = random_codeword(h, rng);
  for (std::size_t i = 0; i < h.codeword_bits(); ++i) {
    BitVec bad = cw;
    bad.flip(i);
    EXPECT_EQ(h.decode(bad), Hamming::DecodeStatus::kCorrected) << i;
    EXPECT_EQ(bad, cw) << "bit " << i << " not restored";
  }
}

TEST(Hamming, CleanWordIsLeftAlone) {
  Rng rng(3);
  Hamming h(543);
  BitVec cw = random_codeword(h, rng);
  const BitVec orig = cw;
  EXPECT_EQ(h.decode(cw), Hamming::DecodeStatus::kClean);
  EXPECT_EQ(cw, orig);
}

TEST(Hamming, DoubleErrorsNeverDecodeToClean) {
  // A SEC Hamming code either miscorrects a 2-bit error (flipping a third
  // bit) or reports uncorrectable — it can never claim the word is clean.
  Rng rng(4);
  Hamming h(543);
  const BitVec cw = random_codeword(h, rng);
  for (int t = 0; t < 3000; ++t) {
    const auto i = rng.next_below(h.codeword_bits());
    auto j = rng.next_below(h.codeword_bits());
    while (j == i) j = rng.next_below(h.codeword_bits());
    BitVec bad = cw;
    bad.flip(i);
    bad.flip(j);
    const auto st = h.decode(bad);
    EXPECT_NE(st, Hamming::DecodeStatus::kClean);
    if (st == Hamming::DecodeStatus::kCorrected) {
      // Miscorrection: result differs from the true codeword.
      EXPECT_NE(bad, cw);
      // ...but is itself a consistent codeword (syndrome zero).
      EXPECT_EQ(h.syndrome(bad), 0u);
    }
  }
}

TEST(Hamming, TwoBitErrorFixableWhenOnePositionKnown) {
  // The SDR primitive: flip one of the two faulty bits, then ECC-1 corrects
  // the other. Must succeed for every pair.
  Rng rng(5);
  Hamming h(543);
  const BitVec cw = random_codeword(h, rng);
  for (int t = 0; t < 500; ++t) {
    const auto i = rng.next_below(h.codeword_bits());
    auto j = rng.next_below(h.codeword_bits());
    while (j == i) j = rng.next_below(h.codeword_bits());
    BitVec bad = cw;
    bad.flip(i);
    bad.flip(j);
    bad.flip(i);  // "known position" repaired by SDR
    EXPECT_EQ(h.decode(bad), Hamming::DecodeStatus::kCorrected);
    EXPECT_EQ(bad, cw);
  }
}

TEST(Hamming, SmallCodeExhaustive) {
  // Hamming(4 message bits) = the classic (7,4) code extended with our
  // layout. Exhaustively verify all messages and all single-bit errors.
  Hamming h(4);
  EXPECT_EQ(h.check_bits(), 3u);
  EXPECT_EQ(h.codeword_bits(), 7u);
  for (unsigned msg = 0; msg < 16; ++msg) {
    BitVec cw(7);
    for (int b = 0; b < 4; ++b)
      if ((msg >> b) & 1u) cw.set(b);
    h.encode(cw);
    EXPECT_EQ(h.syndrome(cw), 0u);
    for (int e = 0; e < 7; ++e) {
      BitVec bad = cw;
      bad.flip(e);
      EXPECT_EQ(h.decode(bad), Hamming::DecodeStatus::kCorrected);
      EXPECT_EQ(bad, cw);
    }
  }
}

TEST(Hamming, EncodeIsIdempotent) {
  Rng rng(6);
  Hamming h(543);
  BitVec cw = random_codeword(h, rng);
  const BitVec once = cw;
  h.encode(cw);
  EXPECT_EQ(cw, once);
}

class HammingWidths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HammingWidths, RoundTripAndSingleErrorCorrection) {
  const std::size_t k = GetParam();
  Rng rng(k);
  Hamming h(k);
  EXPECT_GE((std::size_t{1} << h.check_bits()), h.codeword_bits() + 1);
  const BitVec cw = random_codeword(h, rng);
  EXPECT_EQ(h.syndrome(cw), 0u);
  for (int t = 0; t < 64; ++t) {
    const auto i = rng.next_below(h.codeword_bits());
    BitVec bad = cw;
    bad.flip(i);
    EXPECT_EQ(h.decode(bad), Hamming::DecodeStatus::kCorrected);
    EXPECT_EQ(bad, cw);
  }
}

INSTANTIATE_TEST_SUITE_P(VariousMessageSizes, HammingWidths,
                         ::testing::Values(4, 11, 26, 57, 64, 120, 247, 512, 543, 1024));

}  // namespace
}  // namespace sudoku
