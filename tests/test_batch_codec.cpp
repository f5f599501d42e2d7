// Differential test battery for the BatchCodec engine (docs/perf.md):
// the bit-plane transpose, the bit-sliced Hamming batch syndrome kernels,
// LineCodec::fully_clean_batch, decode_with_syndromes, the BCH baselines'
// scrub loop, and the CRC-31 kernel dispatch (force_kernel /
// SUDOKU_CRC31_KERNEL) including the PCLMUL folding path. Everything is
// pinned to the bit-serial oracles under the "bit-identical or it doesn't
// ship" rule; every randomized assertion prints its trial seed so a
// failure replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <vector>

#include "baselines/batch_scrub.h"
#include "codes/batch_codec.h"
#include "codes/bch.h"
#include "codes/crc31.h"
#include "codes/ecc_design.h"
#include "codes/hamming.h"
#include "common/rng.h"
#include "sttram/array.h"
#include "sudoku/line_codec.h"

namespace sudoku {
namespace {

constexpr int kBatchTrials = 10000;  // >= 1e4 random batches per code
constexpr std::uint64_t kBaseSeed = 0xba7c4c0dec5ull;

// Batch widths cycled across trials: the corner widths 1, 63, 64 plus a
// spread of partial widths so every trial count exercises ragged lanes.
constexpr std::size_t kWidths[] = {1, 63, 64, 12, 2, 33, 64, 7,
                                   48, 11, 64, 25, 5, 63, 17, 40};

BitVec random_bits(std::size_t n, Rng& rng) {
  BitVec v(n);
  auto w = v.words();
  for (auto& word : w) word = rng.next_u64();
  if (n % 64) w[w.size() - 1] &= (std::uint64_t{1} << (n % 64)) - 1;
  return v;
}

// Flip a random mask of <= max_weight distinct bits.
void inject(BitVec& v, Rng& rng, int max_weight) {
  const int weight = static_cast<int>(rng.next_below(max_weight + 1));
  std::set<std::uint64_t> mask;
  while (static_cast<int>(mask.size()) < weight) mask.insert(rng.next_below(v.size()));
  for (const auto bit : mask) v.flip(bit);
}

// Stage a batch of codewords and finalize.
void load_batch(BitPlanes& planes, const std::vector<BitVec>& batch,
                std::size_t nbits) {
  planes.reset(nbits, batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    planes.load_line(i, batch[i].words());
  }
  planes.finalize();
}

// ---------------------------------------------------------------------------
// Transpose + BitPlanes container
// ---------------------------------------------------------------------------

TEST(BatchCodec, Transpose64MatchesNaiveAndRoundTrips) {
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t seed = kBaseSeed + static_cast<std::uint64_t>(trial);
    Rng rng(seed);
    std::uint64_t m[64], orig[64];
    for (auto& w : m) w = rng.next_u64();
    std::copy(std::begin(m), std::end(m), std::begin(orig));
    transpose64(m);
    for (int r = 0; r < 64; ++r) {
      for (int c = 0; c < 64; ++c) {
        ASSERT_EQ((m[r] >> c) & 1u, (orig[c] >> r) & 1u)
            << "seed " << seed << " r " << r << " c " << c;
      }
    }
    transpose64(m);  // involution
    for (int r = 0; r < 64; ++r) ASSERT_EQ(m[r], orig[r]) << "seed " << seed;
  }
}

TEST(BatchCodec, BitPlanesMatchStagedLines) {
  // Planes must reproduce every staged bit, and lanes of unstaged slots
  // must read zero — for full, partial, and single-line batches and for
  // word-aligned and ragged codeword widths.
  for (const std::size_t nbits : {64ul, 127ul, 553ul, 572ul}) {
    for (int trial = 0; trial < 64; ++trial) {
      const std::uint64_t seed = kBaseSeed + 1000 + static_cast<std::uint64_t>(trial);
      Rng rng(seed);
      const std::size_t count = kWidths[trial % std::size(kWidths)];
      std::vector<BitVec> batch;
      for (std::size_t i = 0; i < count; ++i) batch.push_back(random_bits(nbits, rng));
      BitPlanes planes;
      load_batch(planes, batch, nbits);
      ASSERT_EQ(planes.nbits(), nbits);
      ASSERT_EQ(planes.count(), count);
      for (std::size_t p = 0; p < nbits; ++p) {
        const std::uint64_t plane = planes.plane(p);
        for (std::size_t line = 0; line < count; ++line) {
          ASSERT_EQ((plane >> line) & 1u, batch[line].test(p) ? 1u : 0u)
              << "seed " << seed << " nbits " << nbits << " bit " << p
              << " line " << line;
        }
        ASSERT_EQ(plane & ~planes.lane_mask(), 0u)
            << "seed " << seed << " nbits " << nbits << " bit " << p;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hamming batch kernel vs the bit-serial oracle
// ---------------------------------------------------------------------------

TEST(BatchCodec, HammingBatchSyndromesMatchBitSerialOracle) {
  const Hamming h(LineCodec::kMessageBits);  // the production 543->553 code
  const std::size_t n = h.codeword_bits();
  BitPlanes planes;
  std::vector<std::uint32_t> out(BitPlanes::kMaxLines);
  for (int trial = 0; trial < kBatchTrials; ++trial) {
    const std::uint64_t seed = kBaseSeed + 2000 + static_cast<std::uint64_t>(trial);
    Rng rng(seed);
    const std::size_t count = kWidths[trial % std::size(kWidths)];
    std::vector<BitVec> batch;
    for (std::size_t i = 0; i < count; ++i) {
      BitVec cw = random_bits(n, rng);
      h.encode(cw);
      inject(cw, rng, 6);  // some lines stay clean (weight 0), some dirty
      batch.push_back(std::move(cw));
    }
    load_batch(planes, batch, n);
    h.batch_syndromes(planes, out.data());
    const std::uint64_t clean = h.batch_syndromes_zero(planes);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t oracle = h.syndrome_reference(batch[i]);
      ASSERT_EQ(out[i], oracle) << "seed " << seed << " line " << i;
      ASSERT_EQ((clean >> i) & 1u, oracle == 0 ? 1u : 0u)
          << "seed " << seed << " line " << i;
    }
    ASSERT_EQ(clean & ~planes.lane_mask(), 0u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// decode_with_syndromes vs decode
// ---------------------------------------------------------------------------

class BatchBch : public ::testing::TestWithParam<int /*t*/> {};

TEST_P(BatchBch, DecodeWithSyndromesMatchesDecode) {
  // Given a codeword's own syndromes, decode_with_syndromes must decide
  // exactly like the self-contained decode(): status, corrected count and
  // final codeword.
  const int t = GetParam();
  const Bch bch(10, t, 512);
  const std::size_t n = bch.codeword_bits();
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t seed = kBaseSeed + 4000 + static_cast<std::uint64_t>(trial);
    Rng rng(seed);
    BitVec cw = random_bits(n, rng);
    for (std::size_t b = 512; b < n; ++b) cw.reset(b);
    bch.encode(cw);
    inject(cw, rng, t + 2);  // clean, correctable, and uncorrectable mixes
    BitVec via_decode = cw;
    const auto a = bch.decode(via_decode);
    BitVec via_syndromes = cw;
    const auto s = bch.syndromes(cw);
    const auto b = bch.decode_with_syndromes(via_syndromes, s);
    ASSERT_EQ(a.status, b.status) << "seed " << seed << " t " << t;
    ASSERT_EQ(a.corrected, b.corrected) << "seed " << seed << " t " << t;
    ASSERT_EQ(via_decode, via_syndromes) << "seed " << seed << " t " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Strengths, BatchBch, ::testing::Values(2, 3, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           // Lvalue operand: the char* + string&& overload hits
                           // GCC 12's -Wrestrict false positive (PR 105329).
                           const std::string t = std::to_string(info.param);
                           return "t" + t;
                         });

// ---------------------------------------------------------------------------
// The baselines' scrub loop at the remainder's capacity: 4KB-t6 is
// GF(2^16) with t·m = 96 parity bits, the largest design the frontier
// sweeps.
// ---------------------------------------------------------------------------

TEST(BatchCodec, BatchScrubOfFourKbT6RegionsMatchesPerRegionDecode) {
  const Bch bch = make_bch(make_ecc_design(4096, 6));
  ASSERT_EQ(static_cast<std::size_t>(bch.t()) * 16, Bch::kMaxSyndromeWords);
  constexpr std::uint64_t kSeed = kBaseSeed + 96;
  constexpr std::size_t kRegions = 14;
  const auto n = static_cast<std::uint32_t>(bch.codeword_bits());
  SttramArray batched(kRegions, n);
  SttramArray per_region(kRegions, n);
  Rng rng(kSeed);
  for (std::size_t r = 0; r < kRegions; ++r) {
    BitVec cw = random_bits(n, rng);
    bch.encode(cw);
    // Weights 1..t+2: corrected, detected and (rarely) miscorrected.
    const int weight = 1 + static_cast<int>(r % (bch.t() + 2));
    std::set<std::uint64_t> flips;
    while (static_cast<int>(flips.size()) < weight) flips.insert(rng.next_below(n));
    for (const auto bit : flips) cw.flip(bit);
    batched.write_line(r, cw);
    per_region.write_line(r, cw);
  }
  std::vector<std::uint64_t> units(kRegions);
  for (std::size_t r = 0; r < kRegions; ++r) units[r] = r;

  BitVec scratch;
  const auto stats = baselines::batch_scrub_bch(bch, batched, units, scratch);

  std::uint64_t corrected = 0;
  std::vector<std::uint64_t> due;
  for (const auto r : units) {
    BitVec cw = per_region.read_line(r);
    switch (bch.decode(cw).status) {
      case Bch::DecodeStatus::kClean:
        break;
      case Bch::DecodeStatus::kCorrected:
        per_region.write_line(r, cw);
        ++corrected;
        break;
      case Bch::DecodeStatus::kUncorrectable:
        due.push_back(r);
        break;
    }
  }
  EXPECT_EQ(stats.corrected, corrected) << "seed " << kSeed;
  EXPECT_EQ(stats.due_unit_ids, due) << "seed " << kSeed;
  for (const auto r : units) {
    ASSERT_EQ(batched.read_line(r), per_region.read_line(r))
        << "seed " << kSeed << " region " << r;
  }
}

// ---------------------------------------------------------------------------
// Corner batches: the patterns most likely to break a transpose or an
// accumulator indexing bug, every line closed against the bit-serial oracle.
// ---------------------------------------------------------------------------

TEST(BatchCodec, CornerPatternBatchesMatchBitSerialOracles) {
  const Hamming h(LineCodec::kMessageBits);
  const std::size_t n = h.codeword_bits();
  BitPlanes planes;
  std::vector<BitVec> batch;
  for (std::size_t i = 0; i < BitPlanes::kMaxLines; ++i) {
    BitVec cw(n);
    switch (i % 4) {
      case 0:  // all-zero: the canonical codeword of every linear code
        break;
      case 1:  // all-one
        for (std::size_t b = 0; b < n; ++b) cw.set(b);
        break;
      case 2:  // single bit, position varied across lines
        cw.set((i * 131) % n);
        break;
      case 3: {  // 32-bit burst straddling word boundaries
        const std::size_t start = (i * 97) % (n - 32);
        for (std::size_t b = start; b < start + 32; ++b) cw.set(b);
        break;
      }
    }
    batch.push_back(std::move(cw));
  }
  load_batch(planes, batch, n);
  std::vector<std::uint32_t> out(batch.size());
  h.batch_syndromes(planes, out.data());
  const std::uint64_t clean = h.batch_syndromes_zero(planes);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::uint32_t oracle = h.syndrome_reference(batch[i]);
    ASSERT_EQ(out[i], oracle) << "n " << n << " line " << i;
    ASSERT_EQ((clean >> i) & 1u, oracle == 0 ? 1u : 0u) << "line " << i;
  }
}

// ---------------------------------------------------------------------------
// LineCodec::fully_clean_batch vs per-line fully_clean
// ---------------------------------------------------------------------------

TEST(BatchCodec, FullyCleanBatchMatchesPerLine) {
  // ECC-1 (Hamming inner code, bit-sliced) and ECC-2 (BCH inner code, per
  // line), with fault masks that produce clean lines, inner-dirty lines,
  // and the nasty case of inner-clean lines whose CRC fails (faults
  // aliasing to a codeword).
  for (const int t : {1, 2}) {
    const LineCodec codec(t);
    BitPlanes planes;
    for (int trial = 0; trial < 1500; ++trial) {
      const std::uint64_t seed =
          kBaseSeed + 8000 + static_cast<std::uint64_t>(t * 100000 + trial);
      Rng rng(seed);
      const std::size_t count = kWidths[trial % std::size(kWidths)];
      std::vector<BitVec> batch;
      for (std::size_t i = 0; i < count; ++i) {
        BitVec stored = codec.encode(random_bits(LineCodec::kDataBits, rng));
        inject(stored, rng, 8);
        batch.push_back(std::move(stored));
      }
      const std::uint64_t mask = codec.fully_clean_batch(batch, planes);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ((mask >> i) & 1u, codec.fully_clean(batch[i]) ? 1u : 0u)
            << "seed " << seed << " t " << t << " line " << i;
      }
      const std::uint64_t lanes =
          count == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
      ASSERT_EQ(mask & ~lanes, 0u) << "seed " << seed << " t " << t;
    }
  }
}

// ---------------------------------------------------------------------------
// CRC-31 kernel dispatch
// ---------------------------------------------------------------------------

// Restores the default dispatch even when an assertion bails out early —
// force_kernel is process-wide.
struct KernelRestore {
  ~KernelRestore() { Crc31::force_kernel(CrcKernel::kAuto); }
};

TEST(CrcDispatch, ForcedKernelsAllProduceTheOracleDigest) {
  KernelRestore restore;
  const Crc31 crc;
  std::vector<CrcKernel> kernels = {CrcKernel::kBitSerial, CrcKernel::kByteTable,
                                    CrcKernel::kSlicing8};
  if (Crc31::clmul_supported()) kernels.push_back(CrcKernel::kClmul);
  for (int trial = 0; trial < 500; ++trial) {
    const std::uint64_t seed = kBaseSeed + 9000 + static_cast<std::uint64_t>(trial);
    Rng rng(seed);
    const std::size_t n = 1 + rng.next_below(700);
    const BitVec data = random_bits(n, rng);
    const std::uint32_t oracle = crc.compute_bitserial(data, n);
    for (const CrcKernel k : kernels) {
      Crc31::force_kernel(k);
      ASSERT_EQ(Crc31::active_kernel(), k) << to_string(k);
      ASSERT_EQ(crc.compute(data, n), oracle)
          << "seed " << seed << " len " << n << " kernel " << to_string(k);
    }
  }
  Crc31::force_kernel(CrcKernel::kAuto);
  const CrcKernel resolved = Crc31::active_kernel();
  ASSERT_NE(resolved, CrcKernel::kAuto);
  ASSERT_EQ(resolved, Crc31::clmul_supported() ? CrcKernel::kClmul
                                               : CrcKernel::kSlicing8);
}

TEST(CrcDispatch, KernelNamesParse) {
  ASSERT_EQ(Crc31::kernel_from_name("auto"), CrcKernel::kAuto);
  ASSERT_EQ(Crc31::kernel_from_name("bit_serial"), CrcKernel::kBitSerial);
  ASSERT_EQ(Crc31::kernel_from_name("byte_table"), CrcKernel::kByteTable);
  ASSERT_EQ(Crc31::kernel_from_name("slicing8"), CrcKernel::kSlicing8);
  ASSERT_EQ(Crc31::kernel_from_name("clmul"), CrcKernel::kClmul);
  for (const CrcKernel k : {CrcKernel::kAuto, CrcKernel::kBitSerial,
                            CrcKernel::kByteTable, CrcKernel::kSlicing8,
                            CrcKernel::kClmul}) {
    ASSERT_EQ(Crc31::kernel_from_name(to_string(k)), k);
  }
}

TEST(CrcDispatchDeathTest, UnknownKernelNameAbortsLoudly) {
  // A typo in SUDOKU_CRC31_KERNEL must never silently fall back to a
  // different kernel.
  ASSERT_DEATH(Crc31::kernel_from_name("bogus"), "unknown CRC-31 kernel");
  ASSERT_DEATH(Crc31::kernel_from_name(""), "unknown CRC-31 kernel");
}

TEST(CrcDispatch, ClmulKernelMatchesOracleAcrossLengths) {
  if (!Crc31::clmul_supported()) GTEST_SKIP() << "host lacks pclmulqdq";
  const Crc31 crc;
  Rng rng(kBaseSeed + 10000);
  const BitVec data = random_bits(1201, rng);
  // Every boundary the folding loop + scalar tail can split on: below one
  // 128-bit chunk, exactly at chunk/word/byte edges, and ragged tails.
  for (const std::size_t n :
       {0ul, 1ul, 31ul, 63ul, 64ul, 65ul, 127ul, 128ul, 129ul, 191ul, 192ul,
        255ul, 256ul, 257ul, 300ul, 383ul, 384ul, 512ul, 543ul, 553ul, 700ul,
        896ul, 1024ul, 1025ul, 1152ul, 1201ul}) {
    ASSERT_EQ(crc.compute_clmul(data, n), crc.compute_bitserial(data, n))
        << "len " << n;
  }
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t seed = kBaseSeed + 10001 + static_cast<std::uint64_t>(trial);
    Rng trng(seed);
    const std::size_t n = trng.next_below(1202);
    const BitVec d = random_bits(n == 0 ? 1 : n, trng);
    ASSERT_EQ(crc.compute_clmul(d, n), crc.compute_bitserial(d, n))
        << "seed " << seed << " len " << n;
  }
}

}  // namespace
}  // namespace sudoku
