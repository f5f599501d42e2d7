// One formatted image per experiment: the engine adapter formats a
// prototype scheme once (SuDoku's from reliability::make_scheme), and every
// shard runs on a clone of it (baselines::run_mc) with the prototype's
// array as a shared, read-only golden snapshot.
//
// These tests check that the sharing changes nothing a caller can see:
//   * every scheme and fault mode gives byte-identical results and metrics
//     at (1 thread, 1 shard), at (4 threads, 16 shards) and in a serial run
//     that formats its own scheme;
//   * concurrent shards leave the prototype's array, verified bits and
//     parity untouched, and record nothing into a registry attached to it.
// The concurrent cases also give ThreadSanitizer the shared golden and the
// shared BCH tables to check.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include "baselines/cppc_cache.h"
#include "baselines/ecck_cache.h"
#include "baselines/hiecc_cache.h"
#include "baselines/mc_runner.h"
#include "baselines/raid6_cache.h"
#include "baselines/twodp_cache.h"
#include "exp/mc_experiments.h"
#include "exp/metrics_io.h"
#include "faults/scenario.h"
#include "reliability/montecarlo.h"

namespace sudoku {
namespace {

constexpr std::uint64_t kLines = 1024;
constexpr std::uint32_t kGroup = 16;
constexpr std::uint64_t kTrials = 64;
constexpr unsigned kShards = 16;

const exp::ExpOptions kOneShard{.threads = 1, .chunk = kTrials};
const exp::ExpOptions kManyShards{.threads = 4, .chunk = kTrials / kShards};

enum class Mode { kIid, kMixed, kWriteErrors };

std::unique_ptr<faults::FaultScenario> mixed_scenario(const faults::Geometry& geometry) {
  return std::make_unique<faults::FaultScenario>(faults::ScenarioSpec::builtin("mixed"),
                                                 geometry, 7);
}

// ---- SuDoku through exp::run_montecarlo_parallel --------------------------

struct SudokuCase {
  const char* name;
  SudokuLevel level;
  Mode mode;
};
void PrintTo(const SudokuCase& c, std::ostream* os) { *os << c.name; }

reliability::McConfig sudoku_config(const SudokuCase& c) {
  reliability::McConfig cfg;
  cfg.cache.num_lines = kLines;
  cfg.cache.group_size = kGroup;
  cfg.cache.ber = 6e-4;
  cfg.level = c.level;
  cfg.seed = 11;
  cfg.max_intervals = kTrials;
  if (c.mode == Mode::kWriteErrors) {
    cfg.cache.ber = 2e-4;
    cfg.host_writes_per_interval = 48;
    cfg.wer = 4e-3;
  }
  return cfg;
}

class SudokuPrototype : public ::testing::TestWithParam<SudokuCase> {};

TEST_P(SudokuPrototype, ResultsAreByteIdenticalAcrossShardingAndSerial) {
  reliability::McConfig cfg = sudoku_config(GetParam());
  const auto scenario = mixed_scenario({kLines, reliability::kSudokuLineBits});
  if (GetParam().mode == Mode::kMixed) cfg.scenario = scenario.get();

  const auto one = exp::run_montecarlo_parallel(cfg, kOneShard);
  const auto many = exp::run_montecarlo_parallel(cfg, kManyShards);
  reliability::McConfig serial = cfg;
  serial.per_trial_seed_streams = true;
  const auto alone = reliability::run_montecarlo(serial);

  ASSERT_EQ(one.intervals, kTrials);
  EXPECT_GT(one.faults_injected, 0u);
  const std::string want = exp::encode_payload<reliability::McResult>(one);
  EXPECT_EQ(exp::encode_payload<reliability::McResult>(many), want);
  EXPECT_EQ(exp::encode_payload<reliability::McResult>(alone), want);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SudokuPrototype,
    ::testing::Values(SudokuCase{"X_iid", SudokuLevel::kX, Mode::kIid},
                      SudokuCase{"X_mixed", SudokuLevel::kX, Mode::kMixed},
                      SudokuCase{"Z_iid", SudokuLevel::kZ, Mode::kIid},
                      SudokuCase{"Z_mixed", SudokuLevel::kZ, Mode::kMixed},
                      SudokuCase{"Z_write_errors", SudokuLevel::kZ, Mode::kWriteErrors}),
    [](const auto& info) { return std::string(info.param.name); });

// ---- baselines through exp::run_baseline_mc_parallel ---------------------

struct BaselineCase {
  std::string name;
  exp::SchemeFactory factory;
  double ber;
  Mode mode;
};
void PrintTo(const BaselineCase& c, std::ostream* os) { *os << c.name; }

std::vector<BaselineCase> baseline_cases() {
  using namespace baselines;
  const std::vector<std::pair<std::string, std::pair<exp::SchemeFactory, double>>> schemes = {
      {"Ecc4", {[] { return std::make_unique<EccKCache>(kLines, 4); }, 2e-3}},
      {"HiEcc", {[] { return std::make_unique<HiEccCache>(kLines); }, 3e-4}},
      {"Cppc", {[] { return std::make_unique<CppcCache>(kLines); }, 2e-4}},
      {"Raid6", {[] { return std::make_unique<Raid6Cache>(kLines, kGroup); }, 5e-4}},
      {"TwoDp", {[] { return std::make_unique<TwoDpCache>(kLines, kGroup); }, 6e-4}},
  };
  std::vector<BaselineCase> cases;
  for (const auto& [name, scheme] : schemes) {
    for (const Mode mode : {Mode::kIid, Mode::kMixed}) {
      cases.push_back({name + (mode == Mode::kIid ? "_iid" : "_mixed"), scheme.first,
                       scheme.second, mode});
    }
  }
  return cases;
}

class BaselinePrototype : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(BaselinePrototype, ResultsAreByteIdenticalAcrossShardingAndSerial) {
  const BaselineCase& c = GetParam();
  baselines::BaselineMcConfig cfg;
  cfg.ber = c.ber;
  cfg.seed = 13;
  cfg.max_intervals = kTrials;
  const auto probe = c.factory();
  const auto scenario = mixed_scenario({probe->num_units(), probe->bits_per_unit()});
  if (c.mode == Mode::kMixed) cfg.scenario = scenario.get();

  const auto one = exp::run_baseline_mc_parallel(c.factory, cfg, kOneShard);
  const auto many = exp::run_baseline_mc_parallel(c.factory, cfg, kManyShards);
  baselines::BaselineMcConfig serial = cfg;
  serial.per_trial_seed_streams = true;
  const auto alone = baselines::run_baseline_mc(*c.factory(), serial);

  ASSERT_EQ(one.intervals, kTrials);
  EXPECT_GT(one.faults_injected, 0u);
  const std::string want = exp::encode_payload<baselines::BaselineMcResult>(one);
  EXPECT_EQ(exp::encode_payload<baselines::BaselineMcResult>(many), want);
  EXPECT_EQ(exp::encode_payload<baselines::BaselineMcResult>(alone), want);
}

INSTANTIATE_TEST_SUITE_P(Schemes, BaselinePrototype, ::testing::ValuesIn(baseline_cases()),
                         [](const auto& info) { return info.param.name; });

// ---- the shared prototype stays untouched ---------------------------------

// Every stored bit and verified bit of `a` equals `b`'s.
void expect_same_image(const SttramArray& a, const SttramArray& b) {
  ASSERT_EQ(a.num_lines(), b.num_lines());
  std::uint64_t differing = 0;
  for (std::uint64_t line = 0; line < a.num_lines(); ++line) {
    if (!a.line_equals(line, b.read_line(line)) || a.verified(line) != b.verified(line)) {
      ++differing;
    }
  }
  EXPECT_EQ(differing, 0u);
}

// Runs `shard(first, count)` for kShards shards of kTrials / kShards trials
// on four threads at once.
void run_concurrent_shards(const std::function<void(std::uint64_t, std::uint64_t)>& shard) {
  const std::uint64_t count = kTrials / kShards;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (unsigned s = t; s < kShards; s += 4) shard(s * count, count);
    });
  }
  for (auto& th : threads) th.join();
}

TEST(McPrototype, ConcurrentSudokuShardsLeaveThePrototypeUntouched) {
  reliability::McConfig cfg = sudoku_config({"Z_iid", SudokuLevel::kZ, Mode::kIid});
  cfg.per_trial_seed_streams = true;
  const auto prototype = reliability::make_scheme(cfg);
  const baselines::BaselineMcConfig kernel = reliability::kernel_config(cfg);
  const Rng rng = baselines::format_for_run(*prototype, kernel);
  obs::MetricsRegistry attached;
  prototype->attach_metrics(&attached);
  const std::string attached_before = exp::metrics_to_json(attached).str();
  const SttramArray image = prototype->array();

  std::vector<reliability::McResult> results(kShards);
  run_concurrent_shards([&](std::uint64_t first, std::uint64_t count) {
    baselines::BaselineMcConfig shard = kernel;
    shard.first_trial = first;
    shard.max_intervals = count;
    results[first / count] = baselines::run_mc<reliability::McResult>(*prototype, rng, shard);
  });

  expect_same_image(prototype->array(), image);
  EXPECT_TRUE(prototype->consistent());
  EXPECT_EQ(exp::metrics_to_json(attached).str(), attached_before);
  reliability::McResult merged;
  for (const auto& r : results) merged += r;
  EXPECT_GT(merged.raid4_repairs, 0u);
  EXPECT_EQ(exp::encode_payload<reliability::McResult>(merged),
            exp::encode_payload<reliability::McResult>(reliability::run_montecarlo(cfg)));
}

// McResult's repair split comes from a SudokuScheme clone; run over any
// other scheme, run_mc<McResult> throws instead of misreading it.
TEST(McPrototype, SudokuResultRejectsANonSudokuScheme) {
  baselines::EccKCache ecc1(64, 1);
  baselines::BaselineMcConfig cfg;
  cfg.max_intervals = 2;
  const Rng rng = baselines::format_for_run(ecc1, cfg);
  EXPECT_THROW((void)baselines::run_mc<reliability::McResult>(ecc1, rng, cfg),
               std::bad_cast);
}

TEST(McPrototype, ConcurrentBaselineShardsLeaveThePrototypeUntouched) {
  for (const BaselineCase& c : baseline_cases()) {
    if (c.mode != Mode::kIid) continue;
    SCOPED_TRACE(c.name);
    baselines::BaselineMcConfig cfg;
    cfg.ber = c.ber;
    cfg.seed = 13;
    cfg.max_intervals = kTrials;
    cfg.per_trial_seed_streams = true;
    const auto prototype = c.factory();
    const Rng rng = baselines::format_for_run(*prototype, cfg);
    // Only SuDoku-based schemes record scheme-level series; 2DP is one.
    obs::MetricsRegistry attached;
    if (auto* line_scheme = dynamic_cast<baselines::LineScheme*>(prototype.get())) {
      line_scheme->attach_metrics(&attached);
    }
    const std::string attached_before = exp::metrics_to_json(attached).str();
    const SttramArray image = prototype->array();

    std::vector<baselines::BaselineMcResult> results(kShards);
    run_concurrent_shards([&](std::uint64_t first, std::uint64_t count) {
      baselines::BaselineMcConfig shard = cfg;
      shard.first_trial = first;
      shard.max_intervals = count;
      results[first / count] =
          baselines::run_mc<baselines::BaselineMcResult>(*prototype, rng, shard);
    });

    expect_same_image(prototype->array(), image);
    EXPECT_EQ(exp::metrics_to_json(attached).str(), attached_before);
    baselines::BaselineMcResult merged;
    for (const auto& r : results) merged += r;
    EXPECT_GT(merged.corrected, 0u);
    const auto serial = baselines::run_baseline_mc(*c.factory(), cfg);
    EXPECT_EQ(exp::encode_payload<baselines::BaselineMcResult>(merged),
              exp::encode_payload<baselines::BaselineMcResult>(serial));
  }
}

TEST(McPrototype, CloneCopiesStateAndDetachesMetrics) {
  baselines::TwoDpCache original(kLines, kGroup);
  Rng rng(3);
  original.format_random(rng);
  obs::MetricsRegistry attached;
  original.attach_metrics(&attached);
  const std::string attached_before = exp::metrics_to_json(attached).str();

  const auto copy = original.clone();
  EXPECT_EQ(copy->name(), original.name());
  expect_same_image(copy->array(), original.array());
  // A scrub on the copy repairs the copy only and records nowhere.
  copy->array().flip(5, 0);
  const std::uint64_t line = 5;
  EXPECT_EQ(copy->scrub_units({&line, 1}).corrected, 1u);
  expect_same_image(copy->array(), original.array());
  EXPECT_EQ(exp::metrics_to_json(attached).str(), attached_before);
  EXPECT_TRUE(original.consistent());
}

}  // namespace
}  // namespace sudoku
