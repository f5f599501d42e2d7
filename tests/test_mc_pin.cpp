// Pins the exact output of the Monte-Carlo interval loop for every scheme
// and every fault mode: SuDoku-X/Y/Z under i.i.d., fixed-count, write-error
// and mixed-scenario faults, and each baseline under i.i.d. and scenario
// faults. Every result field and a hash of the checkpoint payload (which
// carries the whole metrics registry) must match constants recorded before
// the SuDoku and baseline loops were merged into one kernel, so any change
// to RNG consumption, scrub order, classification or refill shows up here.
//
// The BERs are accelerated so that DUE, SDC heal and DUE refill all occur
// on this small geometry (see the coverage assertions at the end).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "baselines/cppc_cache.h"
#include "baselines/ecck_cache.h"
#include "baselines/hiecc_cache.h"
#include "baselines/mc_runner.h"
#include "baselines/raid6_cache.h"
#include "baselines/twodp_cache.h"
#include "exp/checkpoint.h"
#include "exp/mc_experiments.h"
#include "faults/scenario.h"
#include "obs/macros.h"
#include "reliability/montecarlo.h"

namespace sudoku {
namespace {

constexpr std::uint64_t kLines = 1024;
constexpr std::uint32_t kGroup = 16;

// The "mixed" preset's sources at accelerated rates, so that scenario runs
// see DUEs and SDCs too: stuck and intermittent cells, row and column
// clusters, and an i.i.d. floor.
faults::FaultScenario make_scenario(const faults::Geometry& geometry,
                                    std::uint64_t seed) {
  const auto spec = faults::ScenarioSpec::parse(R"({"name": "pin", "sources": [
      {"kind": "stuck_at", "cells": 24, "value": "random"},
      {"kind": "intermittent", "cells": 16, "period": 4, "active": 2, "value": "random"},
      {"kind": "cluster", "events_per_interval": 2.0, "shape": "row", "span_units": 1, "span_bits": 8},
      {"kind": "cluster", "events_per_interval": 0.5, "shape": "col", "span_units": 4, "span_bits": 1},
      {"kind": "iid", "ber": 4e-4}]})");
  return faults::FaultScenario(*spec, geometry, seed);
}

// One pinned run: the six counts both loops share, the SuDoku repair split
// (zero for baselines) and the payload hash.
struct Pin {
  const char* name;
  std::uint64_t intervals, faults, corrected_or_ecc1, raid4, sdr, hash2, groups,
      due, sdc, failure_intervals, payload_hash;
};

std::string row(const Pin& p) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", 0x%016" PRIx64 "ull},",
                p.name, p.intervals, p.faults, p.corrected_or_ecc1, p.raid4, p.sdr,
                p.hash2, p.groups, p.due, p.sdc, p.failure_intervals, p.payload_hash);
  return buf;
}

void expect_pin(const Pin& want, const Pin& got) {
  SCOPED_TRACE(want.name);
  EXPECT_EQ(got.intervals, want.intervals);
  EXPECT_EQ(got.faults, want.faults);
  EXPECT_EQ(got.corrected_or_ecc1, want.corrected_or_ecc1);
  EXPECT_EQ(got.raid4, want.raid4);
  EXPECT_EQ(got.sdr, want.sdr);
  EXPECT_EQ(got.hash2, want.hash2);
  EXPECT_EQ(got.groups, want.groups);
  EXPECT_EQ(got.due, want.due);
  EXPECT_EQ(got.sdc, want.sdc);
  EXPECT_EQ(got.failure_intervals, want.failure_intervals);
  // The payload includes the metrics registry, which is empty when the
  // build compiles observability out.
  if (SUDOKU_OBS_ENABLED) {
    EXPECT_EQ(got.payload_hash, want.payload_hash);
  }
  if (::testing::Test::HasFailure()) ADD_FAILURE() << "actual: " << row(got);
}

enum class Mode { kIid, kFixedCount, kWriteErrors, kScenario };

// reliability::run_montecarlo's steps with a fixed fault count, which is a
// kernel input (BaselineMcConfig::fixed_fault_count).
reliability::McResult run_fixed_count(const reliability::McConfig& cfg,
                                      std::int64_t count) {
  const auto scheme = reliability::make_scheme(cfg);
  baselines::BaselineMcConfig kernel = reliability::kernel_config(cfg);
  kernel.fixed_fault_count = count;
  const Rng rng = baselines::format_for_run(*scheme, kernel);
  return baselines::run_mc<reliability::McResult>(*scheme, rng, kernel, {});
}

Pin run_sudoku(const char* name, SudokuLevel level, Mode mode) {
  reliability::McConfig cfg;
  cfg.cache.num_lines = kLines;
  cfg.cache.group_size = kGroup;
  cfg.cache.ber = 6e-4;
  cfg.level = level;
  cfg.seed = 11;
  cfg.max_intervals = 40;
  std::unique_ptr<faults::FaultScenario> scenario;
  switch (mode) {
    case Mode::kIid:
      break;
    case Mode::kFixedCount:
      cfg.per_trial_seed_streams = true;
      cfg.first_trial = 5;
      break;
    case Mode::kWriteErrors:
      cfg.cache.ber = 2e-4;
      cfg.host_writes_per_interval = 48;
      cfg.wer = 4e-3;
      break;
    case Mode::kScenario:
      cfg.per_trial_seed_streams = true;
      scenario = std::make_unique<faults::FaultScenario>(
          make_scenario({kLines, reliability::kSudokuLineBits}, 11));
      cfg.scenario = scenario.get();
      cfg.max_intervals = 60;
      break;
  }
  const auto r = mode == Mode::kFixedCount ? run_fixed_count(cfg, 300)
                                            : reliability::run_montecarlo(cfg);
  return {name, r.intervals, r.faults_injected, r.ecc1_corrections, r.raid4_repairs,
          r.sdr_repairs, r.hash2_invocations, r.groups_repaired, r.due_lines,
          r.sdc_lines, r.failure_intervals,
          exp::fnv1a64(exp::encode_payload<reliability::McResult>(r))};
}

Pin run_baseline(const char* name, baselines::CacheScheme& scheme, double ber,
                 bool scenario_mode) {
  baselines::BaselineMcConfig cfg;
  cfg.ber = ber;
  cfg.seed = 13;
  cfg.max_intervals = 40;
  std::unique_ptr<faults::FaultScenario> scenario;
  if (scenario_mode) {
    cfg.per_trial_seed_streams = true;
    scenario = std::make_unique<faults::FaultScenario>(
        make_scenario({scheme.num_units(), scheme.bits_per_unit()}, 13));
    cfg.scenario = scenario.get();
    cfg.max_intervals = 60;
  }
  const auto r = baselines::run_baseline_mc(scheme, cfg);
  return {name, r.intervals, r.faults_injected, r.corrected, 0, 0, 0, 0, r.due_units,
          r.sdc_units, r.failure_intervals,
          exp::fnv1a64(exp::encode_payload<baselines::BaselineMcResult>(r))};
}

constexpr struct {
  const char* name;
  SudokuLevel level;
  Mode mode;
} kSudokuRuns[] = {
    {"sudoku-x.iid", SudokuLevel::kX, Mode::kIid},
    {"sudoku-x.fixed", SudokuLevel::kX, Mode::kFixedCount},
    {"sudoku-x.wer", SudokuLevel::kX, Mode::kWriteErrors},
    {"sudoku-x.mixed", SudokuLevel::kX, Mode::kScenario},
    {"sudoku-y.iid", SudokuLevel::kY, Mode::kIid},
    {"sudoku-y.fixed", SudokuLevel::kY, Mode::kFixedCount},
    {"sudoku-y.wer", SudokuLevel::kY, Mode::kWriteErrors},
    {"sudoku-y.mixed", SudokuLevel::kY, Mode::kScenario},
    {"sudoku-z.iid", SudokuLevel::kZ, Mode::kIid},
    {"sudoku-z.fixed", SudokuLevel::kZ, Mode::kFixedCount},
    {"sudoku-z.wer", SudokuLevel::kZ, Mode::kWriteErrors},
    {"sudoku-z.mixed", SudokuLevel::kZ, Mode::kScenario},
};

// Recorded with the two separate loops (SuDoku and baselines) that the
// shared interval kernel replaced.
constexpr Pin kPins[] = {
    {"sudoku-x.iid", 40, 13574, 9777, 922, 0, 0, 2080, 872, 0, 40, 0x35bfd53d48ac062bull},
    {"sudoku-x.fixed", 40, 12000, 9017, 881, 0, 0, 1631, 538, 0, 40, 0xa2756fb4b26e8768ull},
    {"sudoku-x.wer", 40, 8845, 4416, 847, 0, 0, 1621, 553, 0, 40, 0x438eff7b4c7ad1a1ull},
    {"sudoku-x.mixed", 60, 14557, 11533, 1088, 0, 0, 1874, 560, 0, 60, 0x545896a84d2841d2ull},
    {"sudoku-y.iid", 40, 13574, 9777, 1266, 393, 0, 1392, 135, 0, 24, 0xc18a4efe167c4e15ull},
    {"sudoku-y.fixed", 40, 12000, 9017, 1117, 257, 0, 1159, 45, 0, 11, 0x6cf954a75db9b54bull},
    {"sudoku-y.wer", 40, 8845, 4416, 997, 154, 0, 1318, 243, 0, 39, 0x59e0b16710fdfcaaull},
    {"sudoku-y.mixed", 60, 14557, 11533, 1310, 238, 0, 1430, 100, 0, 31, 0x785ccd1292eea4f5ull},
    {"sudoku-z.iid", 40, 13574, 9777, 1378, 416, 128, 1422, 0, 0, 0, 0x1020996046a6af6full},
    {"sudoku-z.fixed", 40, 12000, 9017, 1152, 267, 45, 1166, 0, 0, 0, 0xfe39d680dedad16cull},
    {"sudoku-z.wer", 40, 8845, 4396, 1217, 166, 251, 1377, 4, 0, 1, 0x1471caeb44e19eedull},
    {"sudoku-z.mixed", 60, 14557, 11533, 1401, 247, 99, 1446, 0, 0, 0, 0xe6955fcd9f551a9aull},
    {"ecc1.iid", 40, 4261, 3937, 0, 0, 0, 0, 106, 109, 40, 0xf0ff117ab57b6fa6ull},
    {"ecc4.iid", 40, 45150, 27179, 0, 0, 0, 0, 211, 0, 40, 0xb238a22c715662d3ull},
    {"hiecc.iid", 40, 21058, 726, 0, 0, 0, 0, 1834, 1, 40, 0x11012a5f804271d4ull},
    {"cppc.iid", 40, 4524, 4021, 0, 0, 0, 0, 247, 0, 40, 0x524b9256e777eb00ull},
    {"raid6.iid", 40, 22826, 15472, 0, 0, 0, 0, 2073, 0, 40, 0x52a3e9070330c67bull},
    {"2dp.iid", 40, 13835, 11586, 0, 0, 0, 0, 127, 0, 25, 0xee9d59ac8318b0ceull},
    {"ecc1.mixed", 60, 14047, 11896, 0, 0, 0, 0, 782, 724, 60, 0x51d96ba27106fe9eull},
    {"ecc4.mixed", 60, 14788, 12990, 0, 0, 0, 0, 131, 1, 52, 0x7888c99bcf728114ull},
    {"hiecc.mixed", 60, 13937, 3321, 0, 0, 0, 0, 427, 0, 60, 0x048b810bdb4c8f50ull},
    {"cppc.mixed", 60, 14811, 11613, 0, 0, 0, 0, 1614, 0, 60, 0x5d5df06c7fc565b3ull},
    {"raid6.mixed", 60, 14811, 13120, 0, 0, 0, 0, 107, 0, 27, 0x1af2000ace3c1c47ull},
    {"2dp.mixed", 60, 14811, 13122, 0, 0, 0, 0, 105, 0, 33, 0x5bd5cac703bfe6b1ull},
};

TEST(McPin, EveryLoopModeIsByteIdentical) {
  std::vector<Pin> got;
  for (const auto& r : kSudokuRuns) got.push_back(run_sudoku(r.name, r.level, r.mode));
  for (const bool scn : {false, true}) {
    baselines::EccKCache ecc1(kLines, 1);
    got.push_back(run_baseline(scn ? "ecc1.mixed" : "ecc1.iid", ecc1, 2e-4, scn));
    baselines::EccKCache ecc4(kLines, 4);
    got.push_back(run_baseline(scn ? "ecc4.mixed" : "ecc4.iid", ecc4, 2e-3, scn));
    baselines::HiEccCache hiecc(kLines);
    got.push_back(run_baseline(scn ? "hiecc.mixed" : "hiecc.iid", hiecc, 1e-3, scn));
    baselines::CppcCache cppc(kLines);
    got.push_back(run_baseline(scn ? "cppc.mixed" : "cppc.iid", cppc, 2e-4, scn));
    baselines::Raid6Cache raid6(kLines, kGroup);
    got.push_back(run_baseline(scn ? "raid6.mixed" : "raid6.iid", raid6, 1e-3, scn));
    baselines::TwoDpCache twodp(kLines, kGroup);
    got.push_back(run_baseline(scn ? "2dp.mixed" : "2dp.iid", twodp, 6e-4, scn));
  }

  std::string all;
  for (const auto& g : got) all += row(g) + "\n";
  ASSERT_EQ(std::size(kPins), got.size()) << "actual rows:\n" << all;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_STREQ(kPins[i].name, got[i].name);
    expect_pin(kPins[i], got[i]);
  }

  // Coverage: the pinned runs exercise DUE refill and SDC heal in both
  // fault modes, so a kernel change to either path cannot slip through.
  std::uint64_t due = 0, sdc = 0;
  for (const auto& p : kPins) {
    due += p.due;
    sdc += p.sdc;
  }
  EXPECT_GT(due, 0u);
  EXPECT_GT(sdc, 0u);
}

}  // namespace
}  // namespace sudoku
