#include "sudoku/line_codec.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "codes/hamming.h"
#include "common/rng.h"

namespace sudoku {
namespace {

BitVec random_data(Rng& rng) {
  BitVec d(LineCodec::kDataBits);
  auto w = d.words();
  for (auto& word : w) word = rng.next_u64();
  return d;
}

TEST(LineCodec, LayoutMatchesPaper) {
  // 512 data + 31 CRC + 10 ECC = 553 bits; 43 bits of overhead per line vs
  // 60 for ECC-6 (the "30% less storage" headline, before PLT amortization).
  LineCodec codec;
  EXPECT_EQ(LineCodec::kDataBits, 512u);
  EXPECT_EQ(LineCodec::kCrcBits, 31u);
  EXPECT_EQ(codec.ecc_bits(), 10u);
  EXPECT_EQ(codec.total_bits(), 553u);
}

TEST(LineCodec, EncodeDecodeRoundTrip) {
  Rng rng(1);
  LineCodec codec;
  for (int t = 0; t < 20; ++t) {
    const BitVec data = random_data(rng);
    const BitVec stored = codec.encode(data);
    EXPECT_TRUE(codec.fully_clean(stored));
    EXPECT_TRUE(codec.crc_ok(stored));
    EXPECT_EQ(codec.extract_data(stored), data);
  }
}

TEST(LineCodec, CleanLineReportsClean) {
  Rng rng(2);
  LineCodec codec;
  BitVec stored = codec.encode(random_data(rng));
  EXPECT_EQ(codec.check_and_correct(stored), LineCodec::LineState::kClean);
}

TEST(LineCodec, CorrectsSingleBitAnywhere) {
  // Paper §III-E: ECC over data+CRC corrects a single fault in data, CRC,
  // or the ECC bits themselves.
  Rng rng(3);
  LineCodec codec;
  const BitVec data = random_data(rng);
  const BitVec good = codec.encode(data);
  for (std::uint32_t i = 0; i < codec.total_bits(); ++i) {
    BitVec bad = good;
    bad.flip(i);
    EXPECT_EQ(codec.check_and_correct(bad), LineCodec::LineState::kCorrected) << i;
    EXPECT_EQ(bad, good);
  }
}

TEST(LineCodec, TwoBitFaultsAreUncorrectableButDetected) {
  Rng rng(4);
  LineCodec codec;
  const BitVec good = codec.encode(random_data(rng));
  for (int t = 0; t < 2000; ++t) {
    const auto i = rng.next_below(codec.total_bits());
    auto j = rng.next_below(codec.total_bits());
    while (j == i) j = rng.next_below(codec.total_bits());
    BitVec bad = good;
    bad.flip(i);
    bad.flip(j);
    EXPECT_EQ(codec.check_and_correct(bad), LineCodec::LineState::kUncorrectable);
    // The line must be left untouched for RAID/SDR to work on.
    BitVec expect = good;
    expect.flip(i);
    expect.flip(j);
    EXPECT_EQ(bad, expect);
  }
}

TEST(LineCodec, MultiBitFaultsUpToSevenDetected) {
  // CRC-31 detection claim: odd counts are guaranteed by the (x+1) factor;
  // even counts alias with ~2^-31 — sampled patterns must all be flagged.
  Rng rng(5);
  LineCodec codec;
  const BitVec good = codec.encode(random_data(rng));
  for (int faults = 3; faults <= 7; ++faults) {
    for (int t = 0; t < 400; ++t) {
      BitVec bad = good;
      std::set<std::uint64_t> used;
      while (static_cast<int>(used.size()) < faults) {
        const auto pos = rng.next_below(codec.total_bits());
        if (used.insert(pos).second) bad.flip(pos);
      }
      ASSERT_EQ(codec.check_and_correct(bad), LineCodec::LineState::kUncorrectable)
          << faults << " faults silently accepted";
    }
  }
}

TEST(LineCodec, CrcOkIgnoresEccBits) {
  // crc_ok is the paper's 1-cycle read check: it validates data vs CRC
  // field only. A fault in the ECC region leaves crc_ok true.
  Rng rng(6);
  LineCodec codec;
  BitVec stored = codec.encode(random_data(rng));
  stored.flip(codec.total_bits() - 1);  // ECC bit
  EXPECT_TRUE(codec.crc_ok(stored));
  EXPECT_FALSE(codec.fully_clean(stored));
  // ...and the scrub path fixes it.
  EXPECT_EQ(codec.check_and_correct(stored), LineCodec::LineState::kCorrected);
}

TEST(LineCodec, SdrPrimitiveFlipThenCorrect) {
  // Flip one of two faulty bits (position known from parity mismatch):
  // ECC-1 + CRC must then fully repair the line.
  Rng rng(7);
  LineCodec codec;
  const BitVec good = codec.encode(random_data(rng));
  for (int t = 0; t < 500; ++t) {
    const auto i = rng.next_below(codec.total_bits());
    auto j = rng.next_below(codec.total_bits());
    while (j == i) j = rng.next_below(codec.total_bits());
    BitVec bad = good;
    bad.flip(i);
    bad.flip(j);
    bad.flip(i);  // SDR's trial flip at a mismatch position
    EXPECT_EQ(codec.check_and_correct(bad), LineCodec::LineState::kCorrected);
    EXPECT_EQ(bad, good);
  }
}

TEST(LineCodec, WrongTrialFlipLeavesLineUncorrectable) {
  // SDR flips a mismatch position belonging to the *other* faulty line:
  // this line then has three faults and must still be flagged.
  Rng rng(8);
  LineCodec codec;
  const BitVec good = codec.encode(random_data(rng));
  for (int t = 0; t < 500; ++t) {
    std::set<std::uint64_t> used;
    while (used.size() < 3) used.insert(rng.next_below(codec.total_bits()));
    BitVec bad = good;
    for (const auto p : used) bad.flip(p);
    EXPECT_EQ(codec.check_and_correct(bad), LineCodec::LineState::kUncorrectable);
  }
}

TEST(LineCodec, DistinctDataYieldsDistinctCodewords) {
  Rng rng(9);
  LineCodec codec;
  const BitVec a = random_data(rng);
  BitVec b = a;
  b.flip(100);
  EXPECT_NE(codec.encode(a), codec.encode(b));
}

// ---- ECC-1 check_and_correct vs its reference composition --------------

// The composition the single-syndrome ECC-1 path replaces: a full clean
// check, else Hamming::decode on a copy, accepted only if the copy is then
// fully clean.
LineCodec::LineState reference_check(const LineCodec& codec, const Hamming& ham,
                                     BitVec& stored) {
  if (codec.fully_clean(stored)) return LineCodec::LineState::kClean;
  BitVec trial = stored;
  if (ham.decode(trial) == Hamming::DecodeStatus::kCorrected && codec.fully_clean(trial)) {
    stored = trial;
    return LineCodec::LineState::kCorrected;
  }
  return LineCodec::LineState::kUncorrectable;
}

class Ecc1Differential {
 public:
  explicit Ecc1Differential(std::uint64_t seed)
      : seed_(seed), ham_(LineCodec::kMessageBits) {}

  const LineCodec& codec() const { return codec_; }

  // Runs both paths on `line`; returns false (after one ADD_FAILURE naming
  // the replay seed) on the first disagreement.
  bool same(const BitVec& line, const std::string& what) {
    ++cases_;
    BitVec got = line;
    BitVec want = line;
    const auto got_state = codec_.check_and_correct(got);
    const auto want_state = reference_check(codec_, ham_, want);
    ++states_[static_cast<int>(want_state)];
    const bool untouched = got_state != LineCodec::LineState::kUncorrectable || got == line;
    if (got_state == want_state && got == want && untouched) return true;
    ADD_FAILURE() << what << ": state " << static_cast<int>(got_state) << " vs reference "
                  << static_cast<int>(want_state) << (got == want ? "" : ", bits differ")
                  << (untouched ? "" : ", uncorrectable line modified")
                  << " (replay seed " << seed_ << ")";
    return false;
  }

  std::uint64_t cases() const { return cases_; }
  std::uint64_t seen(LineCodec::LineState s) const { return states_[static_cast<int>(s)]; }

 private:
  std::uint64_t seed_;
  LineCodec codec_;
  Hamming ham_;
  std::uint64_t cases_ = 0;
  std::uint64_t states_[3] = {};
};

TEST(LineCodecDifferential, Ecc1MatchesDecodeReferenceOnLowWeightErrors) {
  // Every weight-1 and weight-2 error pattern on several random codewords.
  const std::uint64_t seed = 0xecc1d1ff;
  Ecc1Differential diff(seed);
  Rng rng(seed);
  const std::uint32_t n = diff.codec().total_bits();
  for (int cw = 0; cw < 3; ++cw) {
    const BitVec good = diff.codec().encode(random_data(rng));
    ASSERT_TRUE(diff.same(good, "clean codeword"));
    for (std::uint32_t i = 0; i < n; ++i) {
      BitVec bad = good;
      bad.flip(i);
      ASSERT_TRUE(diff.same(bad, "weight 1 at " + std::to_string(i)));
      for (std::uint32_t j = i + 1; j < n; ++j) {
        bad.flip(j);
        ASSERT_TRUE(diff.same(bad, "weight 2 at " + std::to_string(i) + "," +
                                       std::to_string(j)));
        bad.flip(j);
      }
    }
  }
  // Weight 2 includes miscorrections (syndromes naming a valid position)
  // and out-of-range syndromes, so all three outcomes occur.
  EXPECT_GT(diff.seen(LineCodec::LineState::kCorrected), 0u);
  EXPECT_GT(diff.seen(LineCodec::LineState::kUncorrectable), 0u);
}

TEST(LineCodecDifferential, Ecc1MatchesDecodeReferenceOnSeededHeavierErrors) {
  const std::uint64_t seed = 0xecc1d3a6;
  Ecc1Differential diff(seed);
  Rng rng(seed);
  const std::uint32_t n = diff.codec().total_bits();
  for (int trial = 0; trial < 4000; ++trial) {
    const BitVec good = diff.codec().encode(random_data(rng));
    const int weight = 3 + static_cast<int>(rng.next_below(4));  // 3..6
    BitVec bad = good;
    std::set<std::uint32_t> used;
    while (static_cast<int>(used.size()) < weight) {
      const auto bit = static_cast<std::uint32_t>(rng.next_below(n));
      if (used.insert(bit).second) bad.flip(bit);
    }
    ASSERT_TRUE(diff.same(bad, "trial " + std::to_string(trial) + ", weight " +
                                   std::to_string(weight)));
  }
}

TEST(LineCodecDifferential, Ecc1MatchesDecodeReferenceOnCrcFieldErrors) {
  // Errors confined to the CRC field: every weight-1 and weight-2 pattern,
  // then seeded weights 3..6.
  const std::uint64_t seed = 0xecc1dc2c;
  Ecc1Differential diff(seed);
  Rng rng(seed);
  const std::uint32_t lo = LineCodec::kDataBits;
  const std::uint32_t hi = LineCodec::kMessageBits;
  const BitVec good = diff.codec().encode(random_data(rng));
  for (std::uint32_t i = lo; i < hi; ++i) {
    BitVec bad = good;
    bad.flip(i);
    ASSERT_TRUE(diff.same(bad, "crc weight 1 at " + std::to_string(i)));
    for (std::uint32_t j = i + 1; j < hi; ++j) {
      bad.flip(j);
      ASSERT_TRUE(diff.same(bad, "crc weight 2 at " + std::to_string(i) + "," +
                                     std::to_string(j)));
      bad.flip(j);
    }
  }
  for (int trial = 0; trial < 2000; ++trial) {
    const int weight = 3 + static_cast<int>(rng.next_below(4));
    BitVec bad = good;
    std::set<std::uint32_t> used;
    while (static_cast<int>(used.size()) < weight) {
      const auto bit = lo + static_cast<std::uint32_t>(rng.next_below(hi - lo));
      if (used.insert(bit).second) bad.flip(bit);
    }
    ASSERT_TRUE(diff.same(bad, "crc trial " + std::to_string(trial)));
  }
}

}  // namespace
}  // namespace sudoku
