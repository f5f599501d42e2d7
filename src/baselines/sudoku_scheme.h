// SuDoku at any level (X, Y or Z) behind the CacheScheme interface, so the
// Monte-Carlo interval kernel (baselines/mc_runner.h) drives it like every
// other scheme. BaselineStats only carries the corrected/DUE split, so the
// adapter keeps a running total of the controller's repair split for
// reliability::run_montecarlo to report.
#pragma once

#include "baselines/scheme.h"
#include "sudoku/controller.h"

namespace sudoku::baselines {

class SudokuScheme : public CacheScheme {
 public:
  explicit SudokuScheme(const SudokuConfig& config) : ctrl_(config) {}

  std::string name() const override { return to_string(ctrl_.config().level); }
  std::uint64_t num_units() const override { return ctrl_.array().num_lines(); }
  std::uint32_t bits_per_unit() const override { return ctrl_.array().bits_per_line(); }
  SttramArray& array() override { return ctrl_.array(); }
  const SttramArray& array() const override { return ctrl_.array(); }

  void format_random(Rng& rng) override { ctrl_.format_random(rng); }
  // corrected = ECC-1 corrections + RAID-4 reconstructions + SDR
  // resurrections; DUE = lines the repair pipeline gave up on.
  BaselineStats scrub_units(std::span<const std::uint64_t> units) override;
  // Refills through the host write path (re-encode the golden data and
  // update the PLTs), as a refill from the next memory level would.
  void restore_unit(std::uint64_t unit, const BitVec& golden_stored) override;
  // Inner-code check bits plus one parity line per group and hash.
  double overhead_bits_per_line() const override;

  SudokuController& controller() { return ctrl_; }
  // The repair split (ecc1 .. groups_repaired) summed over every
  // scrub_units call; the other fields stay zero.
  const ScrubStats& repairs() const { return repairs_; }

 private:
  SudokuController ctrl_;
  ScrubStats repairs_;
};

}  // namespace sudoku::baselines
