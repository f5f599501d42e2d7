// SuDoku at any level (X, Y or Z) behind the scheme interface — the one
// wrapper around SudokuController. The Monte-Carlo interval kernel
// (baselines/mc_runner.h) drives it like every other CacheScheme, and the
// concurrent service serves it as a bank through LineScheme. ScrubReport
// only carries the corrected/DUE split, so the scheme keeps a running total
// of the controller's repair split for reliability::run_montecarlo to
// report.
#pragma once

#include "baselines/scheme.h"
#include "sudoku/controller.h"

namespace sudoku::baselines {

class SudokuScheme : public LineScheme {
 public:
  explicit SudokuScheme(const SudokuConfig& config) : ctrl_(config) {}
  // A copy records into no registry: the original's instruments belong to
  // whoever attached them.
  SudokuScheme(const SudokuScheme& other)
      : LineScheme(other), ctrl_(other.ctrl_), repairs_(other.repairs_) {
    ctrl_.attach_metrics(nullptr);
  }
  SudokuScheme(SudokuScheme&&) = default;

  std::string name() const override { return to_string(ctrl_.config().level); }
  std::uint64_t num_units() const override { return ctrl_.array().num_lines(); }
  std::uint32_t bits_per_unit() const override { return ctrl_.array().bits_per_line(); }
  SttramArray& array() override { return ctrl_.array(); }
  const SttramArray& array() const override { return ctrl_.array(); }
  std::unique_ptr<CacheScheme> clone() const override {
    return std::make_unique<SudokuScheme>(*this);
  }

  void format_random(Rng& rng) override { ctrl_.format_random(rng); }
  // corrected = ECC-1 corrections + RAID-4 reconstructions + SDR
  // resurrections; DUE = lines the repair pipeline gave up on.
  ScrubReport scrub_units(std::span<const std::uint64_t> units) override;
  // Refills through the host write path (re-encode the golden data and
  // update the PLTs), as a refill from the next memory level would.
  void restore_unit(std::uint64_t unit, const BitVec& golden_stored) override;
  // Inner-code check bits plus one parity line per group and hash.
  double overhead_bits_per_line() const override;

  // ---- host data path: one unit per line ----
  std::uint64_t num_lines() const override { return ctrl_.config().geo.num_lines; }
  std::uint64_t unit_of_line(std::uint64_t line) const override { return line; }
  void format(const std::function<BitVec(std::uint64_t)>& make_data) override {
    ctrl_.format(make_data);
  }
  ReadResult read(std::uint64_t line) override { return ctrl_.read_data(line); }
  void write(std::uint64_t line, const BitVec& data512) override {
    ctrl_.write_data(line, data512);
  }
  bool try_clean_read(std::uint64_t line, BitVec& stored_scratch,
                      BitVec& data_out) const override;
  void attach_metrics(obs::MetricsRegistry* registry) override {
    ctrl_.attach_metrics(registry);
  }
  bool consistent() const override { return ctrl_.parities_consistent(); }

  SudokuController& controller() { return ctrl_; }
  const SudokuController& controller() const { return ctrl_; }
  // The repair split (ecc1 .. groups_repaired) summed over every
  // scrub_units call; the other fields stay zero.
  const ScrubStats& repairs() const { return repairs_; }

 private:
  SudokuController ctrl_;
  ScrubStats repairs_;
};

}  // namespace sudoku::baselines
