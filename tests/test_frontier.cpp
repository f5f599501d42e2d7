// Large-codeword ECC frontier (ROADMAP item 5): parameterized BCH designs,
// the generalized region cache they plug into, and the (n, k, t) analytical
// FIT model — including the regression that Hi-ECC is exactly the 1 KB/t
// instantiation of all three.
#include <gtest/gtest.h>

#include <set>

#include "baselines/hiecc_cache.h"
#include "baselines/region_cache.h"
#include "codes/ecc_design.h"
#include "reliability/analytical.h"

namespace sudoku {
namespace {

using baselines::HiEccCache;
using baselines::RegionEccCache;

// ---------- field-order selection ----------

TEST(EccDesign, MinFieldOrderKnownPoints) {
  // 64 B line: 512 + 10t <= 1023 for every frontier strength.
  EXPECT_EQ(min_bch_field_order(512, 1), 10);
  EXPECT_EQ(min_bch_field_order(512, 6), 10);
  // 512 B: 4096 + 13t <= 8191.
  EXPECT_EQ(min_bch_field_order(4096, 6), 13);
  // 1 KB: 8192 needs m=14 (2^13 - 1 = 8191 misses by one bit) — the
  // Hi-ECC geometry, 84 parity bits at t=6.
  EXPECT_EQ(min_bch_field_order(8192, 1), 14);
  EXPECT_EQ(min_bch_field_order(8192, 6), 14);
  // 4 KB: 32768 > 2^15 - 1, so m=16 even at t=1.
  EXPECT_EQ(min_bch_field_order(32768, 1), 16);
  EXPECT_EQ(min_bch_field_order(32768, 6), 16);
  // Beyond the GF2m table: 64 KB payloads don't fit any m <= 16.
  EXPECT_EQ(min_bch_field_order(65536, 1), 0);
}

TEST(EccDesign, MakeDesignResolvesHiEccGeometry) {
  const EccDesign d = make_ecc_design(1024, 6);
  EXPECT_EQ(d.name, "1KB-t6");
  EXPECT_EQ(d.data_bits, 8192u);
  EXPECT_EQ(d.m, 14);
  EXPECT_EQ(d.parity_bits, 84u);  // generator degree = m*t here
  EXPECT_EQ(d.codeword_bits, 8276u);
  EXPECT_EQ(d.lines_per_codeword(), 16u);
  EXPECT_DOUBLE_EQ(d.capacity_overhead(), 84.0 / 8192.0);
  EXPECT_DOUBLE_EQ(d.read_amplification(), 8276.0 / 512.0);
  EXPECT_DOUBLE_EQ(d.write_amplification(), (8276.0 + 512.0 + 84.0) / 512.0);
}

TEST(EccDesign, MakeDesignRejectsBadGeometry) {
  EXPECT_THROW(make_ecc_design(0, 1), std::invalid_argument);
  EXPECT_THROW(make_ecc_design(100, 1), std::invalid_argument);  // not 64 B lines
  EXPECT_THROW(make_ecc_design(65536, 1), std::invalid_argument);  // no field fits
}

TEST(EccDesign, FrontierAxesSpanTheSweep) {
  const auto& sizes = frontier_codeword_bytes();
  const auto& ts = frontier_strengths();
  ASSERT_GE(sizes.size(), 3u);
  ASSERT_GE(ts.size(), 4u);
  // Every (size, t) cell of the advertised sweep must construct.
  for (const auto bytes : sizes) {
    for (const int t : ts) {
      const EccDesign d = make_ecc_design(bytes, t);
      EXPECT_GT(d.parity_bits, 0u);
      EXPECT_LE(d.parity_bits, static_cast<std::uint32_t>(d.m * d.t));
    }
  }
}

TEST(EccDesign, ParityBitsMatchTheBuiltCode) {
  // make_ecc_design derives the generator degree without building a code;
  // it must equal the degree of the code the schemes then build, at ECC-k
  // (64 B, k = 1..6), Hi-ECC (1 KB, t = 6) and every frontier point.
  const auto expect_matches = [](std::uint32_t bytes, int t) {
    SCOPED_TRACE(std::to_string(bytes) + " B, t = " + std::to_string(t));
    const EccDesign d = make_ecc_design(bytes, t);
    const Bch bch = make_bch(d);
    EXPECT_EQ(d.parity_bits, bch.parity_bits());
    EXPECT_EQ(d.codeword_bits, bch.codeword_bits());
    return d.parity_bits;
  };
  for (int k = 1; k <= 6; ++k) {
    EXPECT_EQ(expect_matches(64, k), static_cast<std::uint32_t>(10 * k));
  }
  EXPECT_EQ(expect_matches(1024, 6), 84u);
  for (const auto bytes : frontier_codeword_bytes()) {
    for (const int t : frontier_strengths()) expect_matches(bytes, t);
  }
}

TEST(EccDesign, GeneratorDegreeCountsOverlappingCosets) {
  // Small fields, where the cosets of alpha^1..alpha^2t overlap or are
  // shorter than m (e.g. GF(2^6), t = 5: the coset of 9 has 3 members).
  EXPECT_EQ(Bch::generator_degree(6, 5), 27u);
  for (int m = 3; m <= 10; ++m) {
    for (int t = 1; t <= 6; ++t) {
      const std::size_t r = Bch::generator_degree(m, t);
      if (r + 1 > (std::size_t{1} << m) - 1) continue;  // no room for a message bit
      EXPECT_EQ(r, Bch(m, t, 1).parity_bits()) << "m = " << m << ", t = " << t;
    }
  }
  EXPECT_THROW(Bch::generator_degree(2, 1), std::invalid_argument);
  EXPECT_THROW(Bch::generator_degree(10, 0), std::invalid_argument);
}

TEST(EccDesign, CodecRoundTripsAndCorrectsTErrors) {
  for (const auto bytes : {64u, 512u}) {
    const EccDesign d = make_ecc_design(bytes, 4);
    Bch bch = make_bch(d);
    Rng rng(bytes);
    BitVec cw(bch.codeword_bits());
    for (std::uint32_t i = 0; i < d.data_bits; ++i) {
      if (rng.next_bool(0.5)) cw.set(i);
    }
    bch.encode(cw);
    const BitVec golden = cw;
    std::set<std::uint32_t> flipped;
    while (flipped.size() < 4u) {
      const auto bit = static_cast<std::uint32_t>(rng.next_below(cw.size()));
      if (flipped.insert(bit).second) cw.flip(bit);
    }
    EXPECT_EQ(bch.decode(cw).status, Bch::DecodeStatus::kCorrected);
    EXPECT_EQ(cw, golden) << d.name;
  }
}

// ---------- generalized region cache ----------

void inject(RegionEccCache& cache, std::uint64_t region, int count, Rng& rng) {
  std::set<std::uint32_t> used;
  while (static_cast<int>(used.size()) < count) {
    const auto bit = static_cast<std::uint32_t>(rng.next_below(cache.bits_per_unit()));
    if (used.insert(bit).second) cache.array().flip(region, bit);
  }
}

TEST(RegionEccCache, CorrectsTFaultsAcrossTheSweep) {
  for (const auto bytes : {512u, 1024u}) {
    for (const int t : {2, 4}) {
      RegionEccCache cache(64, bytes, t);  // 64 lines = several regions
      Rng rng(bytes + static_cast<std::uint64_t>(t));
      cache.format_random(rng);
      const BitVec golden = cache.array().read_line(1);
      inject(cache, 1, t, rng);
      const std::uint64_t units[] = {1};
      const auto stats = cache.scrub_units(units);
      EXPECT_EQ(stats.corrected, 1u) << cache.name();
      EXPECT_EQ(cache.array().read_line(1), golden) << cache.name();
    }
  }
}

TEST(RegionEccCache, BeyondTFaultsAreDetected) {
  RegionEccCache cache(64, 512, 3);
  Rng rng(3);
  cache.format_random(rng);
  inject(cache, 2, 5, rng);  // t + 2
  const std::uint64_t units[] = {2};
  EXPECT_EQ(cache.scrub_units(units).due_unit_ids.size(), 1u);
}

TEST(RegionEccCache, RejectsLineCountNotMultipleOfRegion) {
  EXPECT_THROW(RegionEccCache(60, 512, 2), std::invalid_argument);  // 60 % 8 != 0
  EXPECT_THROW(RegionEccCache(0, 512, 2), std::invalid_argument);
}

TEST(RegionEccCache, LineDataPathRoundTripsWithRmwAccounting) {
  RegionEccCache cache(32, 512, 2);  // 4 regions of 8 lines
  Rng rng(11);
  cache.format_random(rng);
  cache.reset_io_stats();

  BitVec data(RegionEccCache::kLineDataBits);
  for (std::uint32_t i = 0; i < data.size(); i += 2) data.set(i);
  cache.write(9, data);  // region 1, slot 1
  const auto rd = cache.read(9);
  EXPECT_EQ(rd.status, ReadStatus::kClean);
  EXPECT_EQ(rd.data, data);
  // Neighbouring line in the same region survived the RMW.
  EXPECT_EQ(cache.read(10).status, ReadStatus::kClean);

  const auto& io = cache.io_stats();
  EXPECT_EQ(io.line_reads, 2u);
  EXPECT_EQ(io.line_writes, 1u);
  EXPECT_EQ(io.rmw_encodes, 1u);
  EXPECT_EQ(io.region_decodes, 3u);
  const std::uint64_t cw = cache.codec().codeword_bits();
  // Write: read + write a full codeword; each clean read: one codeword read.
  EXPECT_EQ(io.stored_bits_read, 3 * cw);
  EXPECT_EQ(io.stored_bits_written, cw);
  EXPECT_GT(io.bandwidth_amplification(), cache.design().read_amplification());
}

TEST(RegionEccCache, ScrubOnReadRepairsCorrectableRegion) {
  RegionEccCache cache(32, 512, 2);
  Rng rng(12);
  cache.format_random(rng);
  const BitVec golden = cache.array().read_line(0);
  inject(cache, 0, 2, rng);
  const auto rd = cache.read(3);  // any line of region 0
  EXPECT_EQ(rd.status, ReadStatus::kCorrected);
  EXPECT_EQ(cache.array().read_line(0), golden);
  // Second read sees the repaired region.
  EXPECT_EQ(cache.read(3).status, ReadStatus::kClean);
}

// ---------- Hi-ECC as the (1 KB, t) special case ----------

TEST(RegionEccCache, HiEccIsTheOneKilobyteInstantiation) {
  HiEccCache hi(256);
  EXPECT_EQ(hi.name(), "Hi-ECC(ECC-6/1KB)");  // paper-facing name preserved
  EXPECT_EQ(hi.lines_per_region(), HiEccCache::kLinesPerRegion);
  EXPECT_EQ(hi.design().data_bits, HiEccCache::kRegionDataBits);
  EXPECT_EQ(hi.design().parity_bits, 84u);
  EXPECT_DOUBLE_EQ(hi.overhead_bits_per_line(), 84.0 / 16.0);

  // Same seed => bit-identical formatted contents in the generalized cache:
  // the RNG consumption and encode path must not have drifted.
  RegionEccCache gen(256, 1024, 6);
  Rng a(77), b(77);
  hi.format_random(a);
  gen.format_random(b);
  for (std::uint64_t r = 0; r < hi.num_units(); ++r) {
    ASSERT_EQ(hi.array().read_line(r), gen.array().read_line(r)) << r;
  }
}

// ---------- analytical (n, k, t) FIT ----------

TEST(RegionCodeFit, HiEccIsTheRegionCodeSpecialCase) {
  reliability::CacheParams p;
  p.num_lines = 1ull << 20;
  const auto hi = reliability::hi_ecc(p);
  const auto gen = reliability::region_code_fit(p, 8192, 84, 6);
  EXPECT_DOUBLE_EQ(hi.log_p_interval, gen.log_p_interval);  // exact, not approx
  EXPECT_DOUBLE_EQ(hi.fit(), gen.fit());
}

TEST(RegionCodeFit, StrongerCodeAndSmallerCodewordBothLowerFit) {
  reliability::CacheParams p;
  for (const auto bytes : frontier_codeword_bytes()) {
    double prev_fit = -1.0;
    for (const int t : frontier_strengths()) {
      const EccDesign d = make_ecc_design(bytes, t);
      const auto r = reliability::region_code_fit(p, d.data_bits, d.parity_bits, d.t);
      if (prev_fit >= 0.0) {
        EXPECT_LT(r.fit(), prev_fit) << d.name;
      }
      prev_fit = r.fit();
    }
  }
  // At fixed strength, concentrating more bits under one codeword weakens it.
  const EccDesign small = make_ecc_design(512, 4);
  const EccDesign large = make_ecc_design(4096, 4);
  const auto fit_small =
      reliability::region_code_fit(p, small.data_bits, small.parity_bits, 4);
  const auto fit_large =
      reliability::region_code_fit(p, large.data_bits, large.parity_bits, 4);
  EXPECT_LT(fit_small.fit(), fit_large.fit());
}

}  // namespace
}  // namespace sudoku
