// Differential tests for the word-at-a-time codec kernels (docs/perf.md):
// the slicing-by-8 CRC, the parity-mask Hamming syndromes (portable and
// AVX-512) and the remainder-based BCH syndromes must be *bit-identical*
// to their bit-serial oracles on random payloads and random <=6-bit error
// masks — the "bit-identical or it doesn't ship" rule. Every assertion
// prints the trial seed so a failure replays from the command line (same
// style as the codec property tests).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "codes/bch.h"
#include "codes/crc31.h"
#include "codes/hamming.h"
#include "common/rng.h"
#include "sudoku/line_codec.h"

namespace sudoku {
namespace {

constexpr int kTrials = 10000;  // >= 1e4 random cases per kernel pair
constexpr std::uint64_t kBaseSeed = 0xc0dec5eedull;

BitVec random_bits(std::size_t n, Rng& rng) {
  BitVec v(n);
  auto w = v.words();
  for (auto& word : w) word = rng.next_u64();
  if (n % 64) w[w.size() - 1] &= (std::uint64_t{1} << (n % 64)) - 1;
  return v;
}

// Flip a random mask of <= max_weight distinct bits; returns the mask size.
std::size_t inject(BitVec& v, Rng& rng, int max_weight) {
  const int weight = static_cast<int>(rng.next_below(max_weight + 1));
  std::set<std::uint64_t> mask;
  while (static_cast<int>(mask.size()) < weight) mask.insert(rng.next_below(v.size()));
  for (const auto bit : mask) v.flip(bit);
  return mask.size();
}

TEST(CodecKernels, CrcSlicingMatchesBitSerialOracle) {
  const Crc31 crc;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t seed = kBaseSeed + static_cast<std::uint64_t>(trial);
    Rng rng(seed);
    // Mix of the codec's real lengths and awkward non-aligned ones.
    static constexpr std::size_t kLens[] = {512, 543, 553, 64, 65, 127, 300, 611};
    const std::size_t n = kLens[trial % 8];
    BitVec data = random_bits(n, rng);
    inject(data, rng, 6);
    const std::uint32_t oracle = crc.compute_bitserial(data, n);
    ASSERT_EQ(crc.compute(data, n), oracle) << "seed " << seed << " len " << n;
    ASSERT_EQ(crc.compute_bytewise(data, n), oracle) << "seed " << seed << " len " << n;
  }
}

TEST(CodecKernels, CrcSlicingMatchesOracleOnPrefixLengths) {
  // Every prefix length of one buffer, exercising all word/byte/bit tail
  // splits of the slicing kernel.
  const Crc31 crc;
  Rng rng(kBaseSeed);
  const BitVec data = random_bits(700, rng);
  for (std::size_t n = 0; n <= 700; ++n) {
    ASSERT_EQ(crc.compute(data, n), crc.compute_bitserial(data, n)) << "len " << n;
  }
}

TEST(CodecKernels, HammingMaskSyndromeMatchesReference) {
  const Hamming h(LineCodec::kMessageBits);  // the 543->553 production code
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t seed = kBaseSeed + 1 + static_cast<std::uint64_t>(trial);
    Rng rng(seed);
    BitVec cw = random_bits(h.codeword_bits(), rng);
    h.encode(cw);
    inject(cw, rng, 6);
    ASSERT_EQ(h.syndrome(cw), h.syndrome_reference(cw)) << "seed " << seed;
  }
}

using SyndromeKernel = std::uint32_t (Hamming::*)(const BitVec&) const;

// One syndrome kernel against syndrome_reference. On the production
// 543->553 code: every single- and two-bit pattern over an encoded
// codeword, then random words. Then random words at the widths where the
// word count or the check-bit count changes: 4 (1 word, r = 3), 57 (1
// word, r = 6), 64 (2 words, r = 7), 120 (2 words), 247 (4 words, r = 8),
// 1013 (16 words, r = 10), 1014 (17 words, r = 11) and 65519 (1024 words,
// r = 16, every mask lane in use). Every failure names the kernel, the
// seed and the width.
void check_syndrome_kernel(SyndromeKernel kernel, const char* name) {
  {
    const Hamming h(LineCodec::kMessageBits);
    const std::size_t n = h.codeword_bits();
    const std::uint64_t seed = kBaseSeed + 7;
    Rng rng(seed);
    BitVec cw = random_bits(n, rng);
    h.encode(cw);
    for (std::size_t a = 0; a < n; ++a) {
      cw.flip(a);
      ASSERT_EQ((h.*kernel)(cw), h.syndrome_reference(cw))
          << name << " seed " << seed << " width " << h.message_bits() << " bit " << a;
      for (std::size_t b = a + 1; b < n; ++b) {
        cw.flip(b);
        ASSERT_EQ((h.*kernel)(cw), h.syndrome_reference(cw))
            << name << " seed " << seed << " width " << h.message_bits() << " bits "
            << a << "," << b;
        cw.flip(b);
      }
      cw.flip(a);
    }
  }
  for (const std::size_t width : {std::size_t{LineCodec::kMessageBits}, std::size_t{4},
                                  std::size_t{57}, std::size_t{64}, std::size_t{120},
                                  std::size_t{247}, std::size_t{1013}, std::size_t{1014},
                                  std::size_t{65519}}) {
    const Hamming h(width);
    const int trials = width == LineCodec::kMessageBits ? kTrials
                       : width > 2048                    ? 100
                                                         : 2000;
    for (int trial = 0; trial < trials; ++trial) {
      const std::uint64_t seed = kBaseSeed + (width << 20) + static_cast<std::uint64_t>(trial);
      Rng rng(seed);
      const BitVec cw = random_bits(h.codeword_bits(), rng);
      ASSERT_EQ((h.*kernel)(cw), h.syndrome_reference(cw))
          << name << " seed " << seed << " width " << width;
    }
  }
}

TEST(CodecKernels, HammingSyndromeKernelsMatchReference) {
  ASSERT_NO_FATAL_FAILURE(check_syndrome_kernel(&Hamming::syndrome_portable, "portable"));
  if (!Hamming::avx512_supported()) {
    GTEST_SKIP() << "host lacks AVX-512F/VPOPCNTDQ; the portable kernel passed";
  }
  ASSERT_NO_FATAL_FAILURE(check_syndrome_kernel(&Hamming::syndrome_avx512, "avx512"));
}

TEST(CodecKernels, HammingDecodeOutcomeMatchesReferenceSyndromePath) {
  // decode() consumes the fast syndrome; replaying its decision rule on
  // the reference syndrome must give the same outcome and the same
  // corrected codeword.
  const Hamming h(LineCodec::kMessageBits);
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t seed = kBaseSeed + 2 + static_cast<std::uint64_t>(trial);
    Rng rng(seed);
    BitVec cw = random_bits(h.codeword_bits(), rng);
    h.encode(cw);
    const std::size_t weight = inject(cw, rng, 6);
    const std::uint32_t ref_syn = h.syndrome_reference(cw);
    BitVec decoded = cw;
    const auto status = h.decode(decoded);
    switch (status) {
      case Hamming::DecodeStatus::kClean:
        ASSERT_EQ(ref_syn, 0u) << "seed " << seed;
        ASSERT_EQ(decoded, cw) << "seed " << seed;
        break;
      case Hamming::DecodeStatus::kCorrected:
        ASSERT_NE(ref_syn, 0u) << "seed " << seed;
        ASSERT_EQ(decoded.distance(cw), 1u) << "seed " << seed;
        ASSERT_EQ(h.syndrome_reference(decoded), 0u) << "seed " << seed;
        break;
      case Hamming::DecodeStatus::kUncorrectable:
        ASSERT_NE(ref_syn, 0u) << "seed " << seed;
        ASSERT_EQ(decoded, cw) << "seed " << seed;
        break;
    }
    if (weight <= 1) {
      ASSERT_NE(status, Hamming::DecodeStatus::kUncorrectable) << "seed " << seed;
    }
  }
}

class BchKernels : public ::testing::TestWithParam<int /*t*/> {};

TEST_P(BchKernels, WordHornerSyndromesMatchReference) {
  const int t = GetParam();
  const Bch bch(10, t, 512);
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t seed = kBaseSeed + 3 + static_cast<std::uint64_t>(trial);
    Rng rng(seed);
    BitVec cw = random_bits(bch.codeword_bits(), rng);
    for (std::size_t i = 512; i < cw.size(); ++i) cw.reset(i);
    bch.encode(cw);
    const std::size_t weight = inject(cw, rng, 6);
    const auto ref = bch.syndromes_reference(cw);
    ASSERT_EQ(bch.syndromes(cw), ref) << "seed " << seed << " t " << t;
    const bool all_zero = std::all_of(ref.begin(), ref.end(),
                                      [](std::uint32_t s) { return s == 0; });
    ASSERT_EQ(bch.syndromes_zero(cw), all_zero) << "seed " << seed << " t " << t;
    // Zero syndromes mean the mask is itself a codeword, impossible below
    // the design distance 2t+1 (heavier masks may legitimately alias).
    if (all_zero) {
      ASSERT_TRUE(weight == 0 || weight > 2 * static_cast<std::size_t>(t))
          << "seed " << seed << " t " << t;
    } else {
      ASSERT_GT(weight, 0u) << "seed " << seed << " t " << t;
    }
  }
}

TEST_P(BchKernels, DecodeOutcomesLawfulUnderRandomMasks) {
  // End-to-end decode over the fast syndromes: <= t faults must be
  // corrected back to the golden codeword; heavier masks either correct
  // exactly, report uncorrectable, or miscorrect to *some* valid codeword
  // — but the returned status must always match the observed effect.
  const int t = GetParam();
  const Bch bch(10, t, 512);
  for (int trial = 0; trial < kTrials / 4; ++trial) {  // decode is pricier
    const std::uint64_t seed = kBaseSeed + 4 + static_cast<std::uint64_t>(trial);
    Rng rng(seed);
    BitVec golden = random_bits(bch.codeword_bits(), rng);
    for (std::size_t i = 512; i < golden.size(); ++i) golden.reset(i);
    bch.encode(golden);
    BitVec cw = golden;
    const std::size_t weight = inject(cw, rng, 6);
    BitVec decoded = cw;
    const auto res = bch.decode(decoded);
    switch (res.status) {
      case Bch::DecodeStatus::kClean:
        // A heavier-than-design-distance mask may land on another valid
        // codeword; below 2t+1 flips, clean means genuinely untouched.
        ASSERT_TRUE(weight == 0 || weight > 2 * static_cast<std::size_t>(t))
            << "seed " << seed << " t " << t;
        ASSERT_EQ(decoded, cw) << "seed " << seed << " t " << t;
        break;
      case Bch::DecodeStatus::kCorrected:
        ASSERT_EQ(static_cast<std::size_t>(res.corrected), decoded.distance(cw))
            << "seed " << seed << " t " << t;
        ASSERT_TRUE(bch.syndromes_zero(decoded)) << "seed " << seed << " t " << t;
        if (weight <= static_cast<std::size_t>(t)) {
          ASSERT_EQ(decoded, golden) << "seed " << seed << " t " << t;
        }
        break;
      case Bch::DecodeStatus::kUncorrectable:
        ASSERT_GT(weight, static_cast<std::size_t>(t)) << "seed " << seed << " t " << t;
        ASSERT_EQ(decoded, cw) << "seed " << seed << " t " << t;
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Strengths, BchKernels, ::testing::Values(1, 2, 3, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           // Lvalue operand: the char* + string&& overload hits
                           // GCC 12's -Wrestrict false positive (PR 105329).
                           const std::string t = std::to_string(info.param);
                           return "t" + t;
                         });

TEST(CodecKernels, HiEccWidthBchSyndromesMatchReference) {
  // The m=14 Hi-ECC geometry (8192-bit payload) has a different tail
  // split; a shorter sweep keeps the suite fast while covering it.
  const Bch bch(14, 6, 8192);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t seed = kBaseSeed + 5 + static_cast<std::uint64_t>(trial);
    Rng rng(seed);
    BitVec cw = random_bits(bch.codeword_bits(), rng);
    for (std::size_t i = 8192; i < cw.size(); ++i) cw.reset(i);
    bch.encode(cw);
    inject(cw, rng, 6);
    ASSERT_EQ(bch.syndromes(cw), bch.syndromes_reference(cw)) << "seed " << seed;
  }
}

TEST(CodecKernels, LineCodecEncodeFieldLayoutIntact) {
  // The word-level encode/extract must reproduce the documented layout:
  // [data 512 | CRC-31(data) | inner ECC]. Cross-check field by field.
  for (const int t : {1, 2}) {
    const LineCodec codec(t);
    Rng rng(kBaseSeed + 6 + static_cast<std::uint64_t>(t));
    for (int trial = 0; trial < 1000; ++trial) {
      BitVec data = random_bits(LineCodec::kDataBits, rng);
      const BitVec stored = codec.encode(data);
      for (std::uint32_t i = 0; i < LineCodec::kDataBits; ++i) {
        ASSERT_EQ(stored.test(i), data.test(i)) << "trial " << trial;
      }
      const Crc31 crc;
      const std::uint32_t want = crc.compute_bitserial(data, LineCodec::kDataBits);
      for (std::uint32_t b = 0; b < LineCodec::kCrcBits; ++b) {
        ASSERT_EQ(stored.test(LineCodec::kDataBits + b), ((want >> b) & 1u) != 0)
            << "trial " << trial;
      }
      ASSERT_EQ(codec.extract_data(stored), data) << "trial " << trial;
      ASSERT_TRUE(codec.fully_clean(stored)) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace sudoku
