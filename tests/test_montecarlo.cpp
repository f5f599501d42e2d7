#include "reliability/montecarlo.h"

#include <gtest/gtest.h>

#include "reliability/analytical.h"

namespace sudoku::reliability {
namespace {

// Small accelerated configurations keep MC runtimes in CI territory while
// still exercising every correction path.
McConfig accel_config(SudokuLevel level, double ber, std::uint64_t intervals) {
  McConfig cfg;
  cfg.cache.num_lines = 1ull << 14;  // 1 MB cache
  cfg.cache.group_size = 128;
  cfg.cache.ber = ber;
  cfg.level = level;
  cfg.max_intervals = intervals;
  cfg.seed = 42;
  return cfg;
}

TEST(MonteCarlo, InjectsExpectedFaultVolume) {
  auto cfg = accel_config(SudokuLevel::kX, 1e-5, 50);
  const auto res = run_montecarlo(cfg);
  EXPECT_EQ(res.intervals, 50u);
  const double expected =
      static_cast<double>(cfg.cache.num_lines) * kSudokuLineBits * cfg.cache.ber * 50;
  EXPECT_NEAR(static_cast<double>(res.faults_injected), expected, expected * 0.3);
}

TEST(MonteCarlo, MostFaultsAreEcc1Corrected) {
  // At modest BER nearly every touched line has a single fault.
  const auto res = run_montecarlo(accel_config(SudokuLevel::kX, 1e-5, 50));
  EXPECT_GT(res.ecc1_corrections * 10, res.faults_injected * 9);
}

TEST(MonteCarlo, NoSilentCorruptionAcrossLevels) {
  for (const auto level : {SudokuLevel::kX, SudokuLevel::kY, SudokuLevel::kZ}) {
    const auto res = run_montecarlo(accel_config(level, 5e-5, 40));
    EXPECT_EQ(res.sdc_lines, 0u) << to_string(level);
  }
}

TEST(MonteCarlo, LevelOrderingUnderAcceleratedBer) {
  // At an accelerated BER, X fails much more often than Y, which fails
  // more often than Z — the paper's central claim, observed functionally.
  const double ber = 2e-4;
  const auto x = run_montecarlo(accel_config(SudokuLevel::kX, ber, 300));
  const auto y = run_montecarlo(accel_config(SudokuLevel::kY, ber, 300));
  const auto z = run_montecarlo(accel_config(SudokuLevel::kZ, ber, 300));
  EXPECT_GT(x.due_lines, 0u);
  EXPECT_GT(x.due_lines, y.due_lines * 2);
  EXPECT_GE(y.due_lines, z.due_lines);
  EXPECT_LT(z.failure_intervals, x.failure_intervals);
}

TEST(MonteCarlo, MatchesAnalyticalSudokuX) {
  // Cross-validation: MC failure probability for SuDoku-X at accelerated
  // BER must agree with the analytical model within statistical error.
  auto cfg = accel_config(SudokuLevel::kX, 2e-4, 1200);
  const auto mc = run_montecarlo(cfg);
  const auto an = sudoku_x_due(cfg.cache);
  ASSERT_GT(mc.failure_intervals, 20u);  // enough events for a comparison
  const double ratio = mc.p_failure_per_interval() / an.p_interval();
  EXPECT_GT(ratio, 0.5) << mc.summary();
  EXPECT_LT(ratio, 2.0) << mc.summary();
}

TEST(MonteCarlo, RepairMachineryActuallyRuns) {
  const auto res = run_montecarlo(accel_config(SudokuLevel::kZ, 2e-4, 300));
  EXPECT_GT(res.raid4_repairs, 0u);
  EXPECT_GT(res.groups_repaired, 0u);
  // SDR events occur at this rate too.
  EXPECT_GT(res.sdr_repairs + res.hash2_invocations, 0u);
}

TEST(MonteCarlo, EarlyStopOnTargetFailures) {
  auto cfg = accel_config(SudokuLevel::kX, 5e-4, 100000);
  cfg.target_failures = 3;
  const auto res = run_montecarlo(cfg);
  EXPECT_EQ(res.failure_intervals, 3u);
  EXPECT_LT(res.intervals, 100000u);
}

TEST(MonteCarlo, DeterministicForSeed) {
  auto cfg = accel_config(SudokuLevel::kY, 1e-4, 50);
  const auto a = run_montecarlo(cfg);
  const auto b = run_montecarlo(cfg);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.due_lines, b.due_lines);
  EXPECT_EQ(a.ecc1_corrections, b.ecc1_corrections);
}

TEST(MonteCarlo, InnerEccStrengthReachesTheController) {
  // CacheParams::inner_ecc_t must configure the functional controller, not
  // only the analytical model: an ECC-2 inner code corrects double-bit
  // lines inline, so far fewer lines reach the RAID machinery and fail.
  auto cfg = accel_config(SudokuLevel::kY, 5e-4, 60);
  cfg.cache.num_lines = 4096;
  cfg.cache.group_size = 16;
  const auto t1 = run_montecarlo(cfg);
  cfg.cache.inner_ecc_t = 2;
  const auto t2 = run_montecarlo(cfg);
  EXPECT_GT(t1.failure_intervals, 0u) << t1.summary();
  EXPECT_LT(t2.failure_intervals * 4, t1.failure_intervals) << t2.summary();
  EXPECT_LT(t2.raid4_repairs * 4, t1.raid4_repairs) << t2.summary();
}

TEST(MonteCarlo, FitAndMttfConversions) {
  McResult r;
  r.intervals = 1000;
  r.failure_intervals = 10;
  EXPECT_NEAR(r.p_failure_per_interval(), 0.01, 1e-12);
  EXPECT_NEAR(r.mttf_seconds(0.02), 2.0, 1e-9);
  EXPECT_NEAR(r.fit(0.02) / (0.01 * 1.8e14), 1.0, 1e-9);
}

}  // namespace
}  // namespace sudoku::reliability
