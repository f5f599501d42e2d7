// 2D error coding baseline (paper §VIII-A, Kim et al. [18]), in the
// "optimized" form the paper compares against: per-line ECC-1 + CRC-31 plus
// one vertical parity line per group, with mismatch-position resurrection.
// Functionally this is SuDoku-Y restricted to a single (non-skewed) hash —
// the paper's Table XI value for 2DP equals its SuDoku-Y DUE FIT — so the
// scheme is the SuDoku adapter at level Y.
#pragma once

#include "baselines/sudoku_scheme.h"

namespace sudoku::baselines {

class TwoDpCache final : public SudokuScheme {
 public:
  // Level Y: vertical parity + resurrection, one hash.
  TwoDpCache(std::uint64_t num_lines, std::uint32_t group_size)
      : SudokuScheme({.geo = {num_lines, group_size}, .level = SudokuLevel::kY}) {}

  std::string name() const override { return "2DP+ECC-1+CRC-31"; }
  std::unique_ptr<CacheScheme> clone() const override {
    return std::make_unique<TwoDpCache>(*this);
  }
  // 2DP refills a lost line by rewriting its stored codeword (the
  // CacheScheme default), not through SuDoku's host write path.
  void restore_unit(std::uint64_t unit, const BitVec& golden_stored) override {
    CacheScheme::restore_unit(unit, golden_stored);
  }
};

}  // namespace sudoku::baselines
