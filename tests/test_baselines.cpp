#include <gtest/gtest.h>

#include <set>

#include "baselines/cppc_cache.h"
#include "baselines/ecck_cache.h"
#include "baselines/hiecc_cache.h"
#include "baselines/mc_runner.h"
#include "baselines/raid6_cache.h"
#include "baselines/sudoku_scheme.h"
#include "baselines/twodp_cache.h"
#include "reliability/analytical.h"

namespace sudoku::baselines {
namespace {

void inject(CacheScheme& s, std::uint64_t unit, int count, Rng& rng) {
  std::set<std::uint32_t> used;
  while (static_cast<int>(used.size()) < count) {
    const auto bit = static_cast<std::uint32_t>(rng.next_below(s.bits_per_unit()));
    if (used.insert(bit).second) s.array().flip(unit, bit);
  }
}

BitVec snapshot(const CacheScheme& s, std::uint64_t unit) {
  return s.array().read_line(unit);
}

// ---------- ECC-k ----------

class EccKParam : public ::testing::TestWithParam<int> {};

TEST_P(EccKParam, CorrectsUpToKFaultsPerLine) {
  const int k = GetParam();
  EccKCache cache(64, k);
  Rng rng(k);
  cache.format_random(rng);
  const BitVec golden = snapshot(cache, 7);
  inject(cache, 7, k, rng);
  const std::uint64_t units[] = {7};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.corrected, 1u);
  EXPECT_EQ(stats.due_unit_ids.size(), 0u);
  EXPECT_EQ(snapshot(cache, 7), golden);
}

TEST_P(EccKParam, FlagsKPlusTwoFaults) {
  // k+1 faults may miscorrect; k+2 with an even spread is overwhelmingly
  // detected for t >= 2 (a lone Hamming-strength ECC-1 miscorrects multi-
  // bit patterns instead — exactly the weakness SuDoku's CRC-31 exists to
  // catch, covered by NeverReportsCleanBeyondK below).
  const int k = GetParam();
  if (k < 2) GTEST_SKIP() << "ECC-1 has no multi-error detection guarantee";
  EccKCache cache(64, k);
  Rng rng(100 + k);
  cache.format_random(rng);
  int due = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const BitVec golden = snapshot(cache, 3);
    inject(cache, 3, k + 2, rng);
    const std::uint64_t units[] = {3};
    const auto stats = cache.scrub_units(units);
    due += static_cast<int>(stats.due_unit_ids.size());
    cache.restore_unit(3, golden);
  }
  EXPECT_GT(due, 15);  // nearly always detected
}

TEST_P(EccKParam, NeverReportsCleanBeyondK) {
  // Whatever happens beyond k faults — detection or miscorrection — the
  // decoder must never claim the line had no errors.
  const int k = GetParam();
  EccKCache cache(64, k);
  Rng rng(200 + k);
  cache.format_random(rng);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVec golden = snapshot(cache, 9);
    inject(cache, 9, k + 2, rng);
    const std::uint64_t units[] = {9};
    const auto stats = cache.scrub_units(units);
    if (stats.due_unit_ids.empty()) {
      // Claimed corrected: must differ from golden only if it actually
      // miscorrected, in which case the stored word is some *other*
      // codeword — either way it was not reported clean.
      EXPECT_EQ(stats.corrected, 1u);
    }
    cache.restore_unit(9, golden);
  }
}

TEST_P(EccKParam, ServesLinesAsALineScheme) {
  // ECC-k is the (64 B, k) region cache, so it serves host reads and
  // writes: up to k faults read back kCorrected with the written data, and
  // k+1 faults (below the code's distance 2k+1) never read back kClean.
  const int k = GetParam();
  EccKCache cache(64, k);
  LineScheme& bank = cache;
  bank.format([](std::uint64_t line) {
    BitVec data(512);
    data.set(line);
    return data;
  });
  Rng rng(300 + k);
  for (std::uint64_t line = 0; line < 8; ++line) {
    BitVec data(512);
    for (int i = 0; i < 40; ++i) data.set(rng.next_below(512));
    bank.write(line, data);
    for (int faults = 1; faults <= k; ++faults) {
      inject(cache, line, faults, rng);
      const ReadResult r = bank.read(line);
      EXPECT_EQ(static_cast<int>(r.status), static_cast<int>(ReadStatus::kCorrected))
          << "line " << line << ", " << faults << " faults";
      EXPECT_EQ(r.data, data) << "line " << line << ", " << faults << " faults";
    }
    inject(cache, line, k + 1, rng);
    EXPECT_NE(static_cast<int>(bank.read(line).status),
              static_cast<int>(ReadStatus::kClean))
        << "line " << line;
  }
}

INSTANTIATE_TEST_SUITE_P(Tolerances, EccKParam, ::testing::Values(1, 2, 4, 6));

TEST(EccKCache, OverheadMatchesPaper) {
  EccKCache ecc6(16, 6);
  EXPECT_DOUBLE_EQ(ecc6.overhead_bits_per_line(), 60.0);  // §II-D
  EXPECT_EQ(ecc6.bits_per_unit(), 572u);
}

// ---------- CPPC ----------

TEST(CppcCache, RepairsOneMultiBitLineGlobally) {
  CppcCache cache(256);
  Rng rng(1);
  cache.format_random(rng);
  ASSERT_TRUE(cache.parity_consistent());
  const BitVec golden = snapshot(cache, 99);
  inject(cache, 99, 5, rng);
  const std::uint64_t units[] = {99};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.due_unit_ids.size(), 0u);
  EXPECT_EQ(snapshot(cache, 99), golden);
}

TEST(CppcCache, FailsOnTwoMultiBitLinesAnywhere) {
  // The paper's point: one global parity cannot cover two faulty lines even
  // in completely unrelated locations.
  CppcCache cache(256);
  Rng rng(2);
  cache.format_random(rng);
  inject(cache, 10, 2, rng);
  inject(cache, 200, 2, rng);
  const std::uint64_t units[] = {10, 200};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.due_unit_ids.size(), 2u);
}

TEST(CppcCache, SingleBitFaultsHandledPerLine) {
  CppcCache cache(128);
  Rng rng(3);
  cache.format_random(rng);
  inject(cache, 5, 1, rng);
  inject(cache, 50, 1, rng);
  const std::uint64_t units[] = {5, 50};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.corrected, 2u);
  EXPECT_EQ(stats.due_unit_ids.size(), 0u);
  EXPECT_TRUE(cache.parity_consistent());
}

// ---------- RAID-6 ----------

TEST(Raid6Cache, RepairsTwoMultiBitLinesInGroup) {
  Raid6Cache cache(256, 32);
  Rng rng(4);
  cache.format_random(rng);
  const BitVec g1 = snapshot(cache, 3);
  const BitVec g2 = snapshot(cache, 17);  // same group of 32
  inject(cache, 3, 3, rng);
  inject(cache, 17, 4, rng);
  const std::uint64_t units[] = {3, 17};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.due_unit_ids.size(), 0u);
  EXPECT_EQ(snapshot(cache, 3), g1);
  EXPECT_EQ(snapshot(cache, 17), g2);
}

TEST(Raid6Cache, FailsOnThreeMultiBitLinesInGroup) {
  Raid6Cache cache(256, 32);
  Rng rng(5);
  cache.format_random(rng);
  inject(cache, 1, 2, rng);
  inject(cache, 9, 2, rng);
  inject(cache, 25, 2, rng);
  const std::uint64_t units[] = {1, 9, 25};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.due_unit_ids.size(), 3u);
}

TEST(Raid6Cache, RdpFlavorMatchesPqBehaviour) {
  // The RDP construction (the paper's "diagonal + row parity" wording)
  // must repair and fail on exactly the same patterns as P+Q.
  for (const auto flavor : {Raid6Flavor::kPQ, Raid6Flavor::kRdp}) {
    Raid6Cache cache(256, 32, flavor);
    Rng rng(14);
    cache.format_random(rng);
    const BitVec g1 = snapshot(cache, 3);
    const BitVec g2 = snapshot(cache, 17);
    inject(cache, 3, 3, rng);
    inject(cache, 17, 4, rng);
    const std::uint64_t two[] = {3, 17};
    EXPECT_EQ(cache.scrub_units(two).due_unit_ids.size(), 0u) << cache.name();
    EXPECT_EQ(snapshot(cache, 3), g1) << cache.name();
    EXPECT_EQ(snapshot(cache, 17), g2) << cache.name();
    // Third multi-bit line in the same group defeats both flavors.
    inject(cache, 1, 2, rng);
    inject(cache, 9, 2, rng);
    inject(cache, 25, 2, rng);
    const std::uint64_t three[] = {1, 9, 25};
    EXPECT_EQ(cache.scrub_units(three).due_unit_ids.size(), 3u) << cache.name();
  }
}

TEST(Raid6Cache, MultiBitLinesInDifferentGroupsAreIndependent) {
  Raid6Cache cache(256, 32);
  Rng rng(6);
  cache.format_random(rng);
  const BitVec g1 = snapshot(cache, 3);
  const BitVec g2 = snapshot(cache, 100);
  inject(cache, 3, 3, rng);
  inject(cache, 100, 3, rng);
  const std::uint64_t units[] = {3, 100};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.due_unit_ids.size(), 0u);
  EXPECT_EQ(snapshot(cache, 3), g1);
  EXPECT_EQ(snapshot(cache, 100), g2);
}

// ---------- 2DP ----------

TEST(TwoDpCache, ResurrectsLikeSudokuY) {
  TwoDpCache cache(1024, 32);
  Rng rng(7);
  cache.format_random(rng);
  const BitVec g1 = snapshot(cache, 4);
  const BitVec g2 = snapshot(cache, 20);
  inject(cache, 4, 2, rng);
  inject(cache, 20, 2, rng);
  const std::uint64_t units[] = {4, 20};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.due_unit_ids.size(), 0u);
  EXPECT_EQ(snapshot(cache, 4), g1);
  EXPECT_EQ(snapshot(cache, 20), g2);
}

TEST(TwoDpCache, NoSecondHashMeansThreeFaultPairsFail) {
  // Where SuDoku-Z recovers (Figure 6), 2DP cannot: same lines, one hash.
  TwoDpCache cache(1024, 32);
  Rng rng(8);
  cache.format_random(rng);
  inject(cache, 4, 3, rng);
  inject(cache, 20, 3, rng);
  const std::uint64_t units[] = {4, 20};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.due_unit_ids.size(), 2u);
}

// ---------- Hi-ECC ----------

TEST(HiEccCache, CorrectsSixFaultsPerRegion) {
  HiEccCache cache(256);  // 16 regions
  Rng rng(9);
  cache.format_random(rng);
  const BitVec golden = snapshot(cache, 5);
  inject(cache, 5, 6, rng);
  const std::uint64_t units[] = {5};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.corrected, 1u);
  EXPECT_EQ(snapshot(cache, 5), golden);
}

TEST(HiEccCache, SevenFaultsInRegionDetected) {
  HiEccCache cache(256);
  Rng rng(10);
  cache.format_random(rng);
  inject(cache, 5, 8, rng);
  const std::uint64_t units[] = {5};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.due_unit_ids.size(), 1u);
}

TEST(HiEccCache, OverheadFarBelowEcc6PerLine) {
  HiEccCache cache(256);
  EXPECT_LT(cache.overhead_bits_per_line(), 6.0);  // ~5.25 bits per 64 B
}

// ---------- storage overhead (§VII-H, Table XII, §II-D) ----------
// Each scheme's overhead_bits_per_line(), at the smallest geometry that
// builds it, and the PLTs' SRAM at the paper's 64 MB geometry.

// SuDoku-Z with `group`-line groups and inner code strength t, over the
// fewest lines its Hash-2 allows (group^2).
SudokuScheme sudoku_z(std::uint32_t group, int inner_t = 1) {
  SudokuConfig cfg;
  cfg.geo.num_lines = std::uint64_t{group} * group;
  cfg.geo.group_size = group;
  cfg.level = SudokuLevel::kZ;
  cfg.inner_ecc_t = inner_t;
  return SudokuScheme(cfg);
}

// The amortised parity share: everything above the 41 per-line CRC-31 +
// ECC-1 bits.
double parity_share(const CacheScheme& s) { return s.overhead_bits_per_line() - 41.0; }

TEST(Storage, SudokuZMatchesPaperSection7H) {
  // §VII-H: 10 ECC + 31 CRC + ~2 bits amortised PLT = 43 bits per line;
  // two PLTs in ~256 KB SRAM for the 64 MB cache.
  SudokuScheme z = sudoku_z(512);
  EXPECT_EQ(LineCodec::kCrcBits, 31u);
  EXPECT_EQ(z.controller().codec().ecc_bits(), 10u);
  EXPECT_NEAR(parity_share(z), 2.16, 0.01);  // paper rounds to 2
  EXPECT_NEAR(z.overhead_bits_per_line(), 43.2, 0.1);
  SudokuConfig paper;  // 64 MB of 64 B lines, 512-line groups
  paper.level = SudokuLevel::kZ;
  const SudokuController cache(paper);
  EXPECT_NEAR(static_cast<double>(cache.plt_storage_bits()) / 8.0 / 1024.0, 276.5,
              1.0);  // ~2x 138 KB
}

TEST(Storage, SudokuBeatsEcc6ByThirtyPercent) {
  const SudokuScheme z = sudoku_z(512);
  const EccKCache e6(16, 6);
  EXPECT_DOUBLE_EQ(e6.overhead_bits_per_line(), 60.0);
  const double saving = 1.0 - z.overhead_bits_per_line() / e6.overhead_bits_per_line();
  EXPECT_GT(saving, 0.25);  // paper: ~30% less storage
  EXPECT_LT(saving, 0.33);
}

TEST(Storage, HiEccIsCheapestButWeakest) {
  const HiEccCache hi(16);
  EXPECT_NEAR(hi.overhead_bits_per_line(), 5.25, 0.01);  // 0.9% overhead claim
  EXPECT_NEAR(hi.overhead_bits_per_line() / 512.0, 0.0103, 0.001);
}

TEST(Storage, CppcGlobalParityAmortizesToNothing) {
  const CppcCache cppc(1u << 20);
  EXPECT_LT(parity_share(cppc), 0.001);
  EXPECT_NEAR(cppc.overhead_bits_per_line(), 41.0, 0.01);
}

TEST(Storage, Raid6CostsTwoParityLinesPerGroup) {
  const Raid6Cache raid6(512, 512);
  EXPECT_NEAR(parity_share(raid6), 2.16, 0.01);
  EXPECT_NEAR(raid6.overhead_bits_per_line(), 43.16, 0.01);  // same budget as Z
}

TEST(Storage, SmallerGroupsCostMoreParity) {
  EXPECT_NEAR(parity_share(sudoku_z(128)) / parity_share(sudoku_z(512)), 4.0, 1e-9);
}

TEST(Storage, InnerEccStrengthAddsTenBitsPerStep) {
  SudokuScheme t1 = sudoku_z(512, 1);
  SudokuScheme t2 = sudoku_z(512, 2);
  EXPECT_EQ(t2.controller().codec().ecc_bits() - t1.controller().codec().ecc_bits(), 10u);
  // ECC-2 SuDoku still cheaper than ECC-6 per line.
  EXPECT_LT(t2.overhead_bits_per_line(), 60.0);
}

// ---------- generic MC runner ----------

TEST(BaselineMc, Ecc2MatchesAnalyticalAtAcceleratedBer) {
  EccKCache cache(1u << 12, 2);
  BaselineMcConfig cfg;
  cfg.ber = 3e-4;
  cfg.max_intervals = 2000;
  cfg.seed = 11;
  const auto mc = run_baseline_mc(cache, cfg);
  reliability::CacheParams ap;
  ap.num_lines = 1u << 12;
  ap.ber = cfg.ber;
  const auto an = reliability::ecc_k(ap, 2);
  ASSERT_GT(mc.failure_intervals, 10u);
  const double ratio = mc.p_failure_per_interval() / an.p_interval();
  EXPECT_GT(ratio, 0.4);
  EXPECT_LT(ratio, 2.5);
}

TEST(BaselineMc, CppcFailsConstantlyAtHighBer) {
  CppcCache cache(1u << 12);
  BaselineMcConfig cfg;
  cfg.ber = 3e-4;
  cfg.max_intervals = 100;
  const auto mc = run_baseline_mc(cache, cfg);
  EXPECT_GT(mc.p_failure_per_interval(), 0.3);
}

TEST(BaselineMc, OrderingCppcWorstRaid6Better) {
  // At this BER the whole-cache pairing probability is ~19 per interval for
  // CPPC (always failing) while RAID-6's per-group triple probability is
  // only a few percent.
  BaselineMcConfig cfg;
  cfg.ber = 1e-4;
  cfg.max_intervals = 200;
  CppcCache cppc(1u << 12);
  Raid6Cache raid6(1u << 12, 128);
  const auto r_cppc = run_baseline_mc(cppc, cfg);
  const auto r_raid6 = run_baseline_mc(raid6, cfg);
  EXPECT_GT(r_cppc.failure_intervals, r_raid6.failure_intervals);
}

TEST(BaselineMc, NoSdcInParityBasedSchemes) {
  BaselineMcConfig cfg;
  cfg.ber = 2e-4;
  cfg.max_intervals = 100;
  Raid6Cache raid6(1u << 12, 128);
  const auto r = run_baseline_mc(raid6, cfg);
  EXPECT_EQ(r.sdc_units, 0u);
  TwoDpCache twodp(1u << 12, 128);
  const auto r2 = run_baseline_mc(twodp, cfg);
  EXPECT_EQ(r2.sdc_units, 0u);
}

}  // namespace
}  // namespace sudoku::baselines
