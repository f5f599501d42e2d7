// §VI: "While SuDoku tolerates high rates of transient faults, it is also
// effective for tolerating permanent faults." Permanent (stuck-at) cells
// re-assert their value after every write, so a repair never sticks — the
// controller must instead correct the data on every read, transparently.
#include <gtest/gtest.h>

#include <vector>

#include "faults/scenario.h"
#include "sudoku/controller.h"

namespace sudoku {
namespace {

using faults::StuckCell;

// Re-impose every stuck cell on the stored array (what the physical cells
// do continuously).
void reassert(SudokuController& c, const std::vector<StuckCell>& cells) {
  faults::assert_cells(c.array(), cells);
}

SudokuConfig small_config(SudokuLevel level) {
  SudokuConfig cfg;
  cfg.geo.num_lines = 1024;
  cfg.geo.group_size = 32;
  cfg.level = level;
  return cfg;
}

BitVec random_data(Rng& rng) {
  BitVec d(LineCodec::kDataBits);
  auto w = d.words();
  for (auto& word : w) word = rng.next_u64();
  return d;
}

TEST(PermanentFaults, SingleStuckCellCorrectedOnEveryRead) {
  SudokuController c(small_config(SudokuLevel::kX));
  Rng rng(1);
  c.format_random(rng);
  const BitVec want = c.read_data(7).data;

  std::vector<StuckCell> stuck = {{7, 100, !c.array().test(7, 100)}};
  for (int round = 0; round < 10; ++round) {
    reassert(c, stuck);
    const auto r = c.read_data(7);
    ASSERT_EQ(r.data, want) << "round " << round;
    // The controller scrubs-on-read, but the cell re-asserts: the fault is
    // back every round and is corrected every round.
    ASSERT_NE(r.status, ReadStatus::kDue);
  }
}

TEST(PermanentFaults, MultiBitStuckLineRepairedViaRaid4EveryRead) {
  SudokuController c(small_config(SudokuLevel::kX));
  Rng rng(2);
  c.format_random(rng);
  const BitVec want = c.read_data(40).data;
  std::vector<StuckCell> stuck;
  for (const std::uint32_t b : {3u, 77u, 205u, 431u}) {
    stuck.push_back({40, b, !c.array().test(40, b)});
  }
  for (int round = 0; round < 5; ++round) {
    reassert(c, stuck);
    const auto r = c.read_data(40);
    ASSERT_EQ(r.data, want) << "round " << round;
  }
}

TEST(PermanentFaults, WritesToStuckLineStillReadBackCorrectly) {
  // New data written over stuck cells differs in those positions the
  // moment it lands; the read path must reconstruct it.
  SudokuController c(small_config(SudokuLevel::kY));
  Rng rng(3);
  c.format_random(rng);
  std::vector<StuckCell> stuck = {{9, 50, true}, {9, 300, false}};
  for (int round = 0; round < 5; ++round) {
    const BitVec data = random_data(rng);
    c.write_data(9, data);
    reassert(c, stuck);
    const auto r = c.read_data(9);
    ASSERT_EQ(r.data, data) << "round " << round;
  }
}

TEST(PermanentFaults, StuckPairInOneGroupNeedsSdrEveryTime) {
  SudokuController c(small_config(SudokuLevel::kY));
  Rng rng(4);
  c.format_random(rng);
  const BitVec want4 = c.read_data(4).data;
  const BitVec want20 = c.read_data(20).data;
  std::vector<StuckCell> stuck;
  for (const auto& [line, bit] :
       std::vector<std::pair<std::uint64_t, std::uint32_t>>{{4, 10}, {4, 99}, {20, 55}, {20, 400}}) {
    stuck.push_back({line, bit, !c.array().test(line, bit)});
  }
  for (int round = 0; round < 3; ++round) {
    reassert(c, stuck);
    const std::uint64_t lines[] = {4, 20};
    const auto stats = c.scrub_lines(lines);
    ASSERT_EQ(stats.due_lines, 0u) << "round " << round;
    reassert(c, stuck);  // cells snap back after the repair writes
    ASSERT_EQ(c.read_data(4).data, want4);
    reassert(c, stuck);
    ASSERT_EQ(c.read_data(20).data, want20);
  }
}

TEST(PermanentFaults, MixedPermanentAndTransientFaults) {
  SudokuController c(small_config(SudokuLevel::kZ));
  Rng rng(5);
  c.format_random(rng);
  const BitVec want = c.read_data(100).data;
  std::vector<StuckCell> stuck = {{100, 222, !c.array().test(100, 222)}};
  for (int round = 0; round < 10; ++round) {
    reassert(c, stuck);
    // A transient fault lands on the same line.
    const auto tbit = static_cast<std::uint32_t>(rng.next_below(553));
    if (tbit != 222) c.array().flip(100, tbit);
    const auto r = c.read_data(100);
    ASSERT_EQ(r.data, want) << "round " << round;
  }
}

}  // namespace
}  // namespace sudoku
