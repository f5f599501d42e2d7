// Cross-module integration tests: cache residency driving RAID-group
// membership, host read/write traffic interleaved with fault injection,
// write-error (§VIII-B) tolerance, and end-to-end consistency invariants.
#include <gtest/gtest.h>

#include <set>

#include "cache/cache_model.h"
#include "reliability/montecarlo.h"
#include "sttram/fault_injector.h"
#include "sudoku/controller.h"

namespace sudoku {
namespace {

BitVec random_data(Rng& rng) {
  BitVec d(LineCodec::kDataBits);
  auto w = d.words();
  for (auto& word : w) word = rng.next_u64();
  return d;
}

TEST(Integration, CacheLineIndexFeedsSudokuController) {
  // The LLC model maps addresses to physical line indices; those indices
  // are SuDoku's line ids. A workload's resident lines must always be
  // valid controller lines.
  cache::CacheConfig ccfg;
  ccfg.size_bytes = 1u << 20;  // 16K lines
  cache::CacheModel llc(ccfg);

  SudokuConfig scfg;
  scfg.geo.num_lines = ccfg.num_lines();
  scfg.geo.group_size = 64;
  scfg.level = SudokuLevel::kZ;
  SudokuController ctrl(scfg);
  Rng rng(1);
  ctrl.format_random(rng);

  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t addr = rng.next_below(1u << 24) & ~63ull;
    const bool is_write = rng.next_bool(0.3);
    const auto res = llc.access(addr, is_write);
    ASSERT_LT(res.line_index, scfg.geo.num_lines);
    if (is_write) {
      ctrl.write_data(res.line_index, random_data(rng));
    } else {
      const auto rr = ctrl.read_data(res.line_index);
      ASSERT_NE(rr.status, ReadStatus::kDue);
    }
  }
  EXPECT_TRUE(ctrl.parities_consistent());
}

TEST(Integration, HostTrafficInterleavedWithFaults) {
  // Writes, reads and thermal faults interleave; no silent corruption may
  // ever surface on reads the controller declares good.
  SudokuConfig cfg;
  cfg.geo.num_lines = 4096;
  cfg.geo.group_size = 64;
  cfg.level = SudokuLevel::kZ;
  SudokuController ctrl(cfg);
  Rng rng(2);
  std::vector<BitVec> shadow;
  ctrl.format([&](std::uint64_t) {
    shadow.push_back(random_data(rng));
    return shadow.back();
  });

  FaultInjector inj(cfg.geo.num_lines, ctrl.codec().total_bits(), 5e-5);
  for (int round = 0; round < 30; ++round) {
    // Thermal faults.
    const auto batch = inj.sample_interval(rng);
    FaultInjector::apply(batch, ctrl.array());
    std::vector<std::uint64_t> touched;
    for (const auto& [line, bits] : batch) touched.push_back(line);
    const auto stats = ctrl.scrub_lines(touched);
    const std::set<std::uint64_t> lost(stats.due_line_ids.begin(),
                                       stats.due_line_ids.end());
    for (const auto l : lost) {
      ctrl.write_data(l, shadow[l]);  // refill
    }
    // Host traffic.
    for (int i = 0; i < 200; ++i) {
      const auto line = rng.next_below(cfg.geo.num_lines);
      if (rng.next_bool(0.5)) {
        shadow[line] = random_data(rng);
        ctrl.write_data(line, shadow[line]);
      } else {
        const auto r = ctrl.read_data(line);
        ASSERT_NE(r.status, ReadStatus::kDue);
        ASSERT_EQ(r.data, shadow[line]) << "line " << line;
      }
    }
  }
  EXPECT_TRUE(ctrl.parities_consistent());
}

TEST(Integration, WriteErrorsToleratedLikeRetentionErrors) {
  // §VIII-B: with WER ≈ retention BER, reliability is similar — and no
  // SDC appears either way.
  reliability::McConfig cfg;
  cfg.cache.num_lines = 1u << 14;  // SuDoku-Z needs lines >= group^2
  cfg.cache.group_size = 128;
  cfg.cache.ber = 1e-4;
  cfg.level = SudokuLevel::kZ;
  cfg.max_intervals = 60;
  cfg.seed = 3;

  const auto retention_only = run_montecarlo(cfg);

  cfg.host_writes_per_interval = 200;
  cfg.wer = 1e-4;
  const auto with_wer = run_montecarlo(cfg);

  EXPECT_EQ(retention_only.sdc_lines, 0u);
  EXPECT_EQ(with_wer.sdc_lines, 0u);
  EXPECT_GT(with_wer.faults_injected, retention_only.faults_injected);
  // Write errors are corrected through the same machinery.
  EXPECT_GE(with_wer.ecc1_corrections, retention_only.ecc1_corrections);
}

TEST(Integration, DueLinesAreExactlyTheUnrecoverableOnes) {
  // Force a known-unrecoverable pattern among recoverable ones and check
  // the DUE report names exactly the right lines.
  SudokuConfig cfg;
  cfg.geo.num_lines = 1024;
  cfg.geo.group_size = 32;
  cfg.level = SudokuLevel::kY;  // no second hash: 3+3 pairs are fatal
  SudokuController ctrl(cfg);
  Rng rng(4);
  ctrl.format_random(rng);

  auto inject = [&](std::uint64_t line, int count) {
    std::set<std::uint32_t> used;
    while (static_cast<int>(used.size()) < count) {
      const auto bit = static_cast<std::uint32_t>(rng.next_below(553));
      if (used.insert(bit).second) ctrl.array().flip(line, bit);
    }
  };
  inject(5, 1);    // ECC-1 territory
  inject(40, 4);   // lone multi-bit: RAID-4
  inject(70, 2);   // pair of 2-fault lines in one group: SDR
  inject(80, 2);
  inject(200, 3);  // pair of 3-fault lines: DUE under Y
  inject(210, 3);

  const std::uint64_t touched[] = {5, 40, 70, 80, 200, 210};
  const auto stats = ctrl.scrub_lines(touched);
  const std::set<std::uint64_t> due(stats.due_line_ids.begin(), stats.due_line_ids.end());
  EXPECT_EQ(due, (std::set<std::uint64_t>{200, 210}));
}

TEST(Integration, ScrubAllEquivalentToSparseScrubOnTouched) {
  // The sparse scrub (only touched lines) must leave the array in the same
  // state as a full scrub.
  SudokuConfig cfg;
  cfg.geo.num_lines = 1024;
  cfg.geo.group_size = 32;
  cfg.level = SudokuLevel::kZ;

  Rng rng(5);
  SudokuController a(cfg), b(cfg);
  Rng fa(77), fb(77);
  a.format_random(fa);
  b.format_random(fb);

  FaultInjector inj(cfg.geo.num_lines, a.codec().total_bits(), 2e-4);
  const auto batch = inj.sample_interval(rng);
  FaultInjector::apply(batch, a.array());
  FaultInjector::apply(batch, b.array());

  std::vector<std::uint64_t> touched;
  for (const auto& [line, bits] : batch) touched.push_back(line);
  a.scrub_lines(touched);
  b.scrub_all();

  for (std::uint64_t line = 0; line < cfg.geo.num_lines; ++line) {
    ASSERT_TRUE(a.array().line_equals(line, b.array().read_line(line))) << line;
  }
}

TEST(Integration, ControllerSurvivesBackToBackIntervalsWithoutRefill) {
  // Even if DUE lines are never refilled (no backing store), the scrub
  // machinery must not corrupt *other* lines or crash.
  SudokuConfig cfg;
  cfg.geo.num_lines = 1024;
  cfg.geo.group_size = 32;
  cfg.level = SudokuLevel::kX;  // fails often at this BER
  SudokuController ctrl(cfg);
  Rng rng(6);
  std::vector<BitVec> shadow;
  ctrl.format([&](std::uint64_t) {
    shadow.push_back(random_data(rng));
    return shadow.back();
  });

  FaultInjector inj(cfg.geo.num_lines, ctrl.codec().total_bits(), 1e-4);
  std::set<std::uint64_t> ever_due;
  for (int round = 0; round < 15; ++round) {
    const auto batch = inj.sample_interval(rng);
    FaultInjector::apply(batch, ctrl.array());
    std::vector<std::uint64_t> touched;
    for (const auto& [line, bits] : batch) touched.push_back(line);
    const auto stats = ctrl.scrub_lines(touched);
    for (const auto l : stats.due_line_ids) ever_due.insert(l);
  }
  // Lines never reported DUE must still hold their data.
  int checked = 0;
  for (std::uint64_t line = 0; line < cfg.geo.num_lines; ++line) {
    if (ever_due.count(line)) continue;
    const auto r = ctrl.read_data(line);
    if (r.status == ReadStatus::kDue) continue;  // new faults
    ASSERT_EQ(r.data, shadow[line]) << line;
    ++checked;
  }
  EXPECT_GT(checked, 900);
}

}  // namespace
}  // namespace sudoku
